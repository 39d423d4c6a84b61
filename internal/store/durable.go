package store

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/codec"
	"repro/internal/mmapfile"
)

// EncodeRelease and DecodeRelease are the single durability path every
// release artifact in the system goes through: the store's spill files
// (which /export sends as they are), the library's Release.Save/Load,
// and the /export of a daemon without a store directory all call these,
// so the on-disk format (internal/codec's versioned binary encoding) is
// negotiated in exactly one place. A release written by any producer is
// readable by every consumer.

// EncodeRelease writes a release payload to w in the shared durable
// format.
func EncodeRelease(w io.Writer, p *codec.Payload) error {
	return codec.Encode(w, p)
}

// DecodeRelease reads a release payload previously written by
// EncodeRelease (or any other producer of the shared format). The
// stream is read into one 8-byte-aligned buffer (mmapfile.ReadAligned)
// and decoded by codec.DecodeMapped — the same decoder a memory-mapped
// spill file goes through — so the returned matrices are views over
// that single buffer, and decode memory is bounded by the input's
// length whatever its header declares. Like DecodeMapped, a format-v2
// stream whose summed-area table section is unreadable returns the
// intact payload (Table nil) alongside an error wrapping
// codec.ErrTable — callers that can rebuild the table (the store,
// persist.Load) treat that as a degraded success.
func DecodeRelease(r io.Reader) (*codec.Payload, error) {
	data, err := mmapfile.ReadAligned(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading release: %w", err)
	}
	p, _, err := codec.DecodeMapped(data, nil)
	return p, err
}

// Ingest is the replica-ingest entry point: it stores the encoded
// release read from r under id. With a Dir the received bytes become
// the release's spill file: Ingest streams r into a staged file of its
// own (atomicfile.Stage), maps it and decodes it with
// codec.DecodeMapped — the header, dims and table-checksum checks a
// reload makes, so a corrupt copy is refused — then renames it into
// place and inserts the entry in one critical section, as Put does.
// The copy is resident, the state a reload leaves: a format-v2 copy
// with its sections mapped, a format-v1 copy with its table rebuilt in
// memory from the matrix (counted in the rebuilds stat, on
// Config.Parallelism workers), as the sender rebuilds it on each load
// of its own v1 file. Nothing is encoded again, so its /export is the
// sender's bytes. Without a Dir, r is decoded into one aligned heap
// buffer (DecodeRelease). Only a v2 copy whose table fails its checksum
// is not kept as it came: its table is rebuilt, counted, and a v2 spill
// file of the store's own encoded.
//
// Answers are bit-identical to the publisher's: the table build is
// deterministic, so adopted and rebuilt tables agree float64-exactly.
// The copy's Workers reads 0, as a recovered release's does. A refused
// copy leaves no entry and no file. A taken ID returns an error
// wrapping ErrDuplicate (releases are immutable, so re-pushing an
// existing replica is a no-op the caller may treat as success). A
// tombstoned ID returns an error wrapping ErrDeleted: the release was
// deliberately removed here, and replication must not resurrect it —
// this node's repair sweep deletes the other copies instead (only an
// explicit Put, i.e. a fresh publish reusing the ID, clears the
// tombstone). The tombstone is checked when the entry is inserted,
// after the copy and the decode, so a Remove that lands mid-copy still
// wins.
func (s *Store) Ingest(id string, r io.Reader) error {
	if err := validateID(id); err != nil {
		return err
	}
	var (
		p    *codec.Payload
		info codec.MapInfo
		tmp  string
		err  error
	)
	if s.cfg.Dir == "" {
		p, err = DecodeRelease(r)
	} else {
		if tmp, err = atomicfile.Stage(s.spillPath(id), func(w io.Writer) error {
			_, err := io.Copy(w, r)
			return err
		}); err != nil {
			return fmt.Errorf("store: ingesting %q: %w", id, err)
		}
		p, info, err = s.loadPayload(tmp)
	}
	if err != nil {
		if tmp != "" {
			os.Remove(tmp)
			tmp = ""
		}
		if p == nil || !errors.Is(err, codec.ErrTable) {
			return fmt.Errorf("store: ingesting %q: %w", id, err)
		}
		log.Printf("store: ingesting %q: durable table unusable, rebuilding: %v", id, err)
	}
	if p.Table == nil {
		s.rebuilds.Add(1)
	}
	return s.put(id, p, info, 0, tmp, true)
}
