package store

import (
	"errors"
	"fmt"
	"io"
	"log"

	"repro/internal/codec"
	"repro/internal/mmapfile"
)

// EncodeRelease and DecodeRelease are the single durability path every
// release artifact in the system goes through: the store's spill files,
// the library's Release.Save/Load, and the daemon's /export endpoint all
// call these, so the on-disk format (internal/codec's versioned binary
// encoding) is negotiated in exactly one place. A release written by any
// producer is readable by every consumer.

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

// Ingest is the replica-ingest entry point: it decodes an encoded
// release from r and stores it under id. Format-v2 bytes carry the
// publisher's summed-area table, so ingesting a replica costs no
// prefix-sum work — the pushed evaluator state is adopted directly,
// and answers are bit-identical to the node that published it (the
// table build is deterministic, so adopted and rebuilt tables agree
// float64-exactly). Format-v1 bytes (a pre-v2 publisher) and v2 bytes
// whose table section fails its checksum in transit fall back to the
// rebuild path, counted in the rebuilds stat; like every evaluator
// build it runs on Config.Parallelism workers. The ingested copy's
// Workers reads 0, as a recovered release's does: the publisher's
// parallelism does not travel with the bytes. A taken ID returns an
// error wrapping ErrDuplicate (releases are immutable, so re-pushing
// an existing replica is a no-op the caller may treat as success). A
// tombstoned ID returns an error wrapping ErrDeleted: the release was
// deliberately removed here, and replication must not resurrect it —
// this node's repair sweep deletes the other copies instead (only an
// explicit Put, i.e. a fresh publish reusing the ID, clears the
// tombstone). The tombstone is checked when the entry is inserted,
// after the decode and the encode of the spill file, so a Remove that
// lands mid-decode still wins.
func (s *Store) Ingest(id string, r io.Reader) error {
	if err := validateID(id); err != nil {
		return err
	}
	p, err := DecodeRelease(r)
	if err != nil {
		if p == nil || !errors.Is(err, codec.ErrTable) {
			return fmt.Errorf("store: ingesting %q: %w", id, err)
		}
		log.Printf("store: ingesting %q: durable table unusable, rebuilding: %v", id, err)
	}
	if p.Table == nil {
		s.rebuilds.Add(1)
	}
	return s.put(id, p, 0, true)
}
