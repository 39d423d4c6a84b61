package privelet

import (
	"errors"
	"io"

	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
)

// Save serializes the release (schema, hierarchies, noisy matrix and
// privacy accounting) to w. A saved release can be shipped to analysts
// and loaded elsewhere — no further privacy cost, since only the
// released data is stored.
//
// The bytes go through store.EncodeRelease, the same durability path the
// priveletd daemon uses for its spill files and /export endpoint, so a
// file written by any of them loads with any of the others. The file
// carries the release's summed-area table (durable format v2), so
// loading it costs no prefix-sum rebuild.
func (r *Release) Save(w io.Writer) error {
	return store.EncodeRelease(w, &codec.Payload{
		Meta:   r.meta,
		Schema: r.schema,
		Noisy:  r.noisy,
		Table:  r.eval.Prefix(),
		Total:  r.eval.Total(),
	})
}

// Load reads a release previously written by Save, downloaded from a
// priveletd /export endpoint, or taken straight from a daemon's
// -store-dir spill directory — all three share one format. A format-v2
// file carries the summed-area table, so the evaluator is adopted with
// zero prefix-sum work; a format-v1 file (or a v2 file whose table
// failed its checksum) rebuilds it with all cores. Both paths answer
// every query bit-identically to the original release — the table build
// is deterministic at any worker count.
func Load(rd io.Reader) (*Release, error) {
	p, err := store.DecodeRelease(rd)
	if err != nil && (p == nil || !errors.Is(err, codec.ErrTable)) {
		return nil, err
	}
	eval := query.NewEvaluatorFromTable(p.Table, p.Total)
	if p.Table == nil {
		eval = query.NewEvaluatorWorkers(p.Noisy, 0) // 0 = all cores
	}
	return &Release{schema: p.Schema, noisy: p.Noisy, eval: eval, meta: p.Meta}, nil
}
