package server

// The node side of the cluster tier's internal surface: bearer-token
// authentication and ring-version checking for every /internal/*
// endpoint, plus the on-demand repair trigger. internal/cluster owns
// the other side (the router's pushes; the Repairer's sweeps call only
// public endpoints); the two packages deliberately do not import each
// other — the cluster package's tests drive real servers, so a
// server→cluster import would cycle — and meet on plain HTTP contracts
// instead: the header names and status codes below.

import (
	"context"
	"crypto/subtle"
	"net/http"
	"strconv"
	"strings"
)

// ringVersionHeader mirrors cluster.RingVersionHeader: the sender's
// ring membership version, stamped on internal calls.
const ringVersionHeader = "X-Ring-Version"

// ClusterConfig is the server's share of a cluster deployment: what a
// node needs to authenticate internal calls, refuse stale peers, and
// expose its anti-entropy repairer. The zero value means "not
// clustered" — no auth, no version check, no repair endpoint.
type ClusterConfig struct {
	// Secret is the shared bearer token every /internal/* call must
	// present (Authorization: Bearer <secret>). Empty disables the check
	// — for single-node deployments and clusters on trusted networks.
	Secret string
	// RingVersion is this node's membership version. An internal call
	// stamped with an older version is refused with a typed 409
	// ("stale_ring"): the sender is routing on an outdated peer list.
	// Calls without the header pass — an unversioned deployment.
	RingVersion uint64
	// Repair, when set, enables POST /internal/repair: it runs one
	// anti-entropy sweep and returns its report (a cluster.RepairReport)
	// as the response body. Wire the node's Repairer.Sweep here.
	Repair func(ctx context.Context) (any, error)
	// RepairStats, when set, is nested as "repair" under the /stats ring
	// section. Wire the node's Repairer.Stats here.
	RepairStats func() any
}

// internalOnly guards an /internal/* handler with the cluster checks:
// the bearer token (401 without it — the replication surface moves
// whole releases, so it must not be open just because the port is) and
// the ring version (409 for a stale sender).
func (s *Server) internalOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if s.cluster.Secret != "" {
			token, ok := strings.CutPrefix(req.Header.Get("Authorization"), "Bearer ")
			// Constant-time compare: an attacker probing the replication
			// endpoint must not learn the secret byte by byte from timing.
			if !ok || subtle.ConstantTimeCompare([]byte(token), []byte(s.cluster.Secret)) != 1 {
				writeJSON(w, http.StatusUnauthorized, map[string]string{
					"error": "missing or invalid cluster credential",
					"code":  "unauthorized",
				})
				return
			}
		}
		if v := req.Header.Get(ringVersionHeader); v != "" {
			sent, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad "+ringVersionHeader+" header: "+err.Error())
				return
			}
			if sent < s.cluster.RingVersion {
				writeJSON(w, http.StatusConflict, map[string]any{
					"error":        "sender ring version is stale; refresh the peer list",
					"code":         "stale_ring",
					"sent_version": sent,
					"node_version": s.cluster.RingVersion,
				})
				return
			}
		}
		h(w, req)
	}
}

// handleRepair triggers one anti-entropy sweep and returns its report —
// the operator's "fix it now" handle after restarting a node, next to
// the background loop's own schedule. Sweeps serialize inside the
// repairer, so hammering the endpoint cannot stack concurrent sweeps.
func (s *Server) handleRepair(w http.ResponseWriter, req *http.Request) {
	report, err := s.cluster.Repair(req.Context())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, report)
}

// ringStats is the /stats ring section: the node's membership version
// plus the repairer's counters, nil (omitted) when not clustered.
func (s *Server) ringStats() any {
	if s.cluster.RingVersion == 0 && s.cluster.RepairStats == nil && s.cluster.Secret == "" {
		return nil
	}
	out := map[string]any{"version": s.cluster.RingVersion}
	if s.cluster.RepairStats != nil {
		out["repair"] = s.cluster.RepairStats()
	}
	return out
}
