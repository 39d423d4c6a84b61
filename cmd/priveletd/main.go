// Command priveletd serves differentially-private releases over HTTP —
// as a single node, as a member of a cluster, or (with -route) as the
// cluster's routing tier.
//
//	priveletd -addr :8080 -store-dir /var/lib/privelet -max-resident 64
//
//	# publish a table (budget is spent here, once); pick any registered
//	# mechanism by name — privelet+ (the default), privelet, basic, hay
//	curl -X POST --data-binary @data.csv \
//	  'localhost:8080/publish?schema=Age:ordinal:64,Gender:nominal:flat:2&epsilon=1&sa=Gender&seed=7&mechanism=privelet%2B'
//
//	# query it as often as you like
//	curl 'localhost:8080/releases/r1/count?q=Age=30..49'
//
//	# or publish as a tenant against a privacy budget (-budget): each
//	# success is a versioned release <tenant>/<epoch>, an exhausted
//	# budget is a typed 429 (sequential composition across epochs), and
//	# with -store-dir the refusal survives restarts
//	curl -X POST --data-binary @data.csv \
//	  'localhost:8080/tenants/alice/publish?schema=Age:ordinal:64&epsilon=0.5'
//	curl 'localhost:8080/tenants/alice/budget'
//	curl 'localhost:8080/releases/alice%2F1/count?q=Age=30..49'
//
//	# or a whole workload in one request (one query spec per line);
//	# answers are bit-identical to per-query /count calls at any
//	# ?parallelism=
//	curl --data-binary @workload.csv 'localhost:8080/releases/r1/query?parallelism=4'
//
//	# withdraw a release and reclaim its disk space
//	curl -X DELETE 'localhost:8080/releases/r1'
//
//	# download the release for offline use (cmd/privelet-compatible codec)
//	curl -o release.prvl 'localhost:8080/releases/r1/export'
//
//	# watch the store: resident/spilled counts, evictions, reloads,
//	# /count answer-cache hits/misses/evictions, node identity
//	curl 'localhost:8080/stats'
//
// # Cluster mode
//
// Several daemons form a cluster behind one router process (see
// internal/cluster). Start each node with a stable -node-name and the
// full peer list (so it can run anti-entropy repair), then a router
// with -route over the same list:
//
//	PEERS=n1=http://localhost:8081,n2=http://localhost:8082,n3=http://localhost:8083
//	priveletd -addr :8081 -node-name n1 -store-dir /var/lib/p1 \
//	  -peers $PEERS -replicas 2 -cluster-secret $SECRET &
//	priveletd -addr :8082 -node-name n2 -store-dir /var/lib/p2 \
//	  -peers $PEERS -replicas 2 -cluster-secret $SECRET &
//	priveletd -addr :8083 -node-name n3 -store-dir /var/lib/p3 \
//	  -peers $PEERS -replicas 2 -cluster-secret $SECRET &
//	priveletd -route -addr :8080 -replicas 2 -peers $PEERS -cluster-secret $SECRET
//
// The router mirrors the node API: publishes consistent-hash onto a
// primary and replicate synchronously, reads fan out to any healthy
// replica, /stats shows the whole fleet. The daemon binds its port
// immediately and answers /healthz at once, but /readyz (the router's
// probe target) returns 503 with a reason until the store has
// registered every release from its spill-file header and the ledger
// has loaded — a restarting node rejoins the ring only once it lists
// every release it holds. Each table is verified on its first read.
//
// With -peers set, each node also runs the anti-entropy repairer
// (internal/cluster.Repairer): every -repair-interval, plus a random
// delay of up to a tenth of it so a fleet restarted together does not
// sweep in lockstep, it diffs actual release placement against the
// ring, pulls each copy it should hold but lacks from any holder's
// /export, and DELETEs the releases it tombstoned on peers that slept
// through the delete (durable tombstones make deletes win over stale
// copies). It never pushes, and it calls only its peers' public
// endpoints. POST /internal/repair triggers one sweep on demand and
// returns its report. -cluster-secret locks every /internal/* endpoint
// behind a shared bearer token that routers send, and -ring-version
// lets membership roll through the fleet one process at a time: bump
// it everywhere when the peer list changes, and a router still on the
// old list has its replication pushes refused with a typed 409 instead
// of writing to stale placement.
//
// Releases live in internal/store. With -store-dir set
// every release is also written through to disk, so the daemon survives
// restarts, and -max-resident bounds how many releases keep their matrix
// in memory — colder ones are served by transparent reload from disk.
// A reload memory-maps the spill file and answers from its persisted
// summed-area table with no decode or prefix-sum work; only a legacy
// format-v1 file, or one whose table fails its checksum, rebuilds the
// table (internal/mmapfile falls back to an aligned heap read where
// mapping is unavailable).
//
// Each release carries an LRU answer cache for /count
// (store.DefaultAnswerCache entries): a repeated count is answered from
// the cache without touching the evaluator, bit-identical to a cold
// answer.
// Batch workloads (POST /releases/{id}/query) bypass it and answer
// every query from the summed-area table on the worker pool, which is
// cheaper than a serial cache probe per query. The cache dies with
// DELETE; releases are immutable, so that is the only invalidation.
// Batch answers stream back in fixed-size chunks with an explicit
// trailer (see internal/server), so clients detect truncated responses.
//
// See internal/server for the full API and query syntax, and
// internal/cluster for the ring, replication, and failure semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	privelet "repro"
	"repro/internal/cluster"
	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxBody     = flag.Int64("max-body", 64<<20, "maximum upload size in bytes")
		workers     = flag.Int("parallelism", 0, "default worker goroutines per publish (0 = all cores); lower it when serving many concurrent publishers")
		storeDir    = flag.String("store-dir", "", "directory for durable release storage; releases already there are served after a restart (empty = memory only)")
		maxResident = flag.Int("max-resident", 0, "max releases kept in memory; colder ones spill to -store-dir and reload on access (0 = unlimited)")
		budget      = flag.Float64("budget", 0, "default per-tenant ε budget for /tenants/{id}/publish (0 = unlimited: spend tracked, never refused)")
		ledgerDir   = flag.String("ledger-dir", "", "directory for durable budget balances (default: -store-dir, so refusals survive restarts whenever releases do)")
		nodeName    = flag.String("node-name", "", "stable cluster identity of this node, stamped on /stats (empty = hostname); placement hashes it, so renaming a node moves its data")
		route       = flag.Bool("route", false, "run as the cluster routing tier over -peers instead of serving releases")
		peers       = flag.String("peers", "", "comma-separated cluster peer list, name=url each (route mode routes over it; node mode uses it to run anti-entropy repair)")
		replicas    = flag.Int("replicas", 2, "copies of each release across the ring (clamped to the peer count)")
		probeEvery  = flag.Duration("probe-interval", cluster.DefaultProbeInterval, "health-probe interval for the ring's nodes (route mode)")
		secret      = flag.String("cluster-secret", "", "shared bearer token for /internal/* calls: nodes require it, routers send it (empty = unauthenticated)")
		ringVersion = flag.Uint64("ring-version", 0, "membership version of -peers; bump it on every peer-list change — internal calls from peers still on an older version are refused with a typed 409")
		repairEvery = flag.Duration("repair-interval", cluster.DefaultRepairInterval, "anti-entropy sweep interval, each wait lengthened by a random delay of up to a tenth of it (node mode with -peers; 0 disables the background loop, POST /internal/repair still works)")
	)
	flag.Parse()

	if *route {
		runRouter(*addr, *peers, *replicas, *maxBody, *probeEvery, *secret, *ringVersion)
		return
	}

	// Bind the port before recovery: /healthz answers immediately, and
	// /readyz 503s with a reason until the store and ledger are loaded —
	// the window a cluster router's probes keep the node out of rotation.
	var handler atomic.Value
	handler.Store(bootHandler("recovering releases and budget ledgers"))
	go func() {
		// The store shares the publish worker ceiling for its evaluator
		// rebuilds (reloads of spilled releases, a recovered release's
		// first read among them); rebuilds are bit-identical at any
		// worker count, so this is latency-only.
		st, err := store.New(store.Config{Dir: *storeDir, MaxResident: *maxResident, Parallelism: *workers, AnswerCache: store.DefaultAnswerCache})
		if err != nil {
			log.Fatal(err)
		}
		if n := st.Len(); n > 0 {
			fmt.Printf("priveletd recovered %d release(s) from %s\n", n, *storeDir)
		}
		// The ledger defaults to living beside the releases: a daemon
		// durable enough to re-serve its releases must also remember what
		// they cost, or a restart would reset sequential composition.
		if *ledgerDir == "" {
			*ledgerDir = *storeDir
		}
		led, err := ledger.New(ledger.Config{Dir: *ledgerDir, DefaultBudget: *budget})
		if err != nil {
			log.Fatal(err)
		}
		if n := len(led.Tenants()); n > 0 {
			fmt.Printf("priveletd recovered %d tenant budget(s) from %s\n", n, *ledgerDir)
		}
		// With a peer list, the node knows the ring and runs its own
		// anti-entropy repairer: a background sweep (plus the on-demand
		// POST /internal/repair) that pulls the replica copies this node
		// lacks and finishes deletes peers slept through. Repair starts
		// only after recovery — a restarting node serves its own state
		// before it starts copying files.
		clusterCfg := server.ClusterConfig{Secret: *secret, RingVersion: *ringVersion}
		if *peers != "" {
			rep, err := nodeRepairer(*peers, *replicas, *ringVersion, *nodeName, *repairEvery, st)
			if err != nil {
				log.Fatal(err)
			}
			clusterCfg.Repair = func(ctx context.Context) (any, error) { return rep.Sweep(ctx) }
			clusterCfg.RepairStats = func() any { return rep.Stats() }
			if *repairEvery > 0 {
				rep.Start()
				fmt.Printf("priveletd anti-entropy sweep every %s\n", *repairEvery)
			}
		}
		srv := server.New(server.Config{MaxBody: *maxBody, Parallelism: *workers, Store: st, Ledger: led, NodeName: *nodeName, Cluster: clusterCfg})
		handler.Store(srv.Handler())
		fmt.Printf("priveletd ready; mechanisms: %s\n", strings.Join(privelet.Mechanisms(), ", "))
	}()
	serve(*addr, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, req)
	}), "priveletd")
}

// bootHandler serves the recovery window: alive, not ready.
func bootHandler(reason string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"error\":%q,\"code\":\"not_ready\"}\n", "starting: "+reason)
	})
	return mux
}

// nodeRepairer builds this node's anti-entropy repairer from the same
// -peers/-replicas/-ring-version spelling the router uses, so one
// deployment config describes both tiers. The node must appear in its
// own peer list under its -node-name.
func nodeRepairer(peerSpec string, replicas int, version uint64, self string, interval time.Duration, st *store.Store) (*cluster.Repairer, error) {
	nodes, err := cluster.ParsePeers(peerSpec)
	if err != nil {
		return nil, err
	}
	ring, err := cluster.NewVersionedRing(nodes, replicas, version)
	if err != nil {
		return nil, err
	}
	if !ring.Contains(self) {
		return nil, fmt.Errorf("-peers does not list this node: set -node-name to one of the peer names (got %q)", self)
	}
	return cluster.NewRepairer(cluster.RepairConfig{Self: self, Ring: ring, Store: st, Interval: interval})
}

// runRouter runs the cluster routing tier: a static consistent-hash
// ring over -peers with health-probed read fan-out and synchronous
// publish replication (see internal/cluster).
func runRouter(addr, peerSpec string, replicas int, maxBody int64, probeEvery time.Duration, secret string, ringVersion uint64) {
	nodes, err := cluster.ParsePeers(peerSpec)
	if err != nil {
		log.Fatal(err)
	}
	ring, err := cluster.NewVersionedRing(nodes, replicas, ringVersion)
	if err != nil {
		log.Fatal(err)
	}
	health := cluster.NewHealth(nodes, cluster.HealthConfig{Interval: probeEvery})
	health.Start()
	defer health.Stop()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Ring: ring, Health: health, MaxBody: maxBody, Secret: secret})
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(nodes))
	for _, n := range ring.Nodes() {
		names = append(names, n.Name)
	}
	fmt.Printf("priveletd routing over %d node(s) [%s], %d-way replication, ring version %d\n",
		len(nodes), strings.Join(names, ", "), ring.Replication(), ring.Version())
	serve(addr, rt.Handler(), "priveletd router")
}

func serve(addr string, h http.Handler, what string) {
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("%s listening on %s\n", what, addr)
	log.Fatal(httpServer.ListenAndServe())
}
