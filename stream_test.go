package privelet_test

// The cross-mechanism serving property (the answer-path determinism
// contract, extended to PR 6's streaming and caching modes): for every
// registered mechanism, the buffered batch, the streamed batch at
// several chunk sizes, and the cached batch all answer float64 == to a
// serial Count loop, at every worker count. Chunking, caching, and
// pooling reorder only computation — never an answer.

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	privelet "repro"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestServingPathsAgreeAcrossMechanisms(t *testing.T) {
	for _, mech := range privelet.Mechanisms() {
		if strings.HasPrefix(mech, "test-") {
			// Throwaway mechanisms other tests registered (the registry
			// is process-global); they fail or cancel by design.
			continue
		}
		t.Run(mech, func(t *testing.T) {
			// hay is one-dimensional by construction; give it its own schema.
			var schema *privelet.Schema
			var err error
			if mech == "hay" {
				schema, err = privelet.NewSchema(privelet.OrdinalAttr("Age", 16))
			} else {
				var occ *privelet.Hierarchy
				occ, err = privelet.ThreeLevelHierarchy(2, 3)
				if err != nil {
					t.Fatal(err)
				}
				schema, err = privelet.NewSchema(
					privelet.OrdinalAttr("Age", 16),
					privelet.NominalAttr("Occ", occ),
				)
			}
			if err != nil {
				t.Fatal(err)
			}
			pub, err := privelet.NewPublisher(schema)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				row := []int{(i * 7) % 16, (i * 5) % 6}[:schema.NumAttrs()]
				if err := pub.Add(row...); err != nil {
					t.Fatal(err)
				}
			}
			rel, err := pub.Publish(context.Background(), mech, privelet.Params{Epsilon: 1, Seed: 23})
			if err != nil {
				t.Fatal(err)
			}

			dims := 2
			if schema.NumAttrs() == 1 {
				dims = 1
			}
			gen, err := workload.NewGenerator(schema, dims)
			if err != nil {
				t.Fatal(err)
			}
			queries, err := gen.Queries(1500, rng.New(29))
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(queries))
			for i, q := range queries {
				if want[i], err = rel.Count(q); err != nil {
					t.Fatal(err)
				}
			}

			check := func(label string, got []float64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: answer %d = %v, serial Count gave %v", label, i, got[i], want[i])
					}
				}
			}

			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				// Buffered.
				got, err := rel.CountBatch(context.Background(), queries, workers)
				if err != nil {
					t.Fatal(err)
				}
				check("buffered", got)

				// Streamed, at an awkward chunk size and the default.
				for _, chunk := range []int{37, 0} {
					var streamed []float64
					sink := func(a []float64) error {
						streamed = append(streamed, a...)
						return nil
					}
					var n int
					if chunk == 0 {
						n, err = rel.CountStream(context.Background(), query.SliceSource(queries), sink, workers)
					} else {
						// The chunk-size knob lives on the internal Batch; the
						// public CountStream always uses the default.
						ev := queryEval(t, rel, queries[0])
						n, err = query.Batch{Eval: ev, Workers: workers, ChunkSize: chunk}.
							ExecuteStream(context.Background(), query.SliceSource(queries), sink)
					}
					if err != nil {
						t.Fatalf("streamed chunk=%d: %v", chunk, err)
					}
					if n != len(want) {
						t.Fatalf("streamed chunk=%d: delivered %d, want %d", chunk, n, len(want))
					}
					check("streamed", streamed)
				}

				// Cached: two passes through a fresh cache (all-miss, then
				// all-hit) must both match.
				cb := query.Batch{
					Eval: queryEval(t, rel, queries[0]), Workers: workers,
					Cache: query.NewAnswerCache(1<<15, nil), Schema: schema,
				}
				for pass := 0; pass < 2; pass++ {
					got, err := cb.Execute(context.Background(), queries)
					if err != nil {
						t.Fatal(err)
					}
					check("cached", got)
				}
			}
		})
	}
}

// TestCountStreamParsedWorkload: CountStream over workload.Stream, the
// slot-filling adapter cmd/privelet streams workload files through,
// answers float64 == to CountBatch over the same queries kept whole, at
// every worker count. The workload spans several default chunks, so
// every slot is refilled; slots are filled on the calling goroutine and
// read on the worker pool, which CI checks under -race at GOMAXPROCS 1
// and 4.
func TestCountStreamParsedWorkload(t *testing.T) {
	occ, err := privelet.ThreeLevelHierarchy(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("Age", 32), privelet.NominalAttr("Occ", occ), privelet.OrdinalAttr("Inc", 8))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := pub.Add((i*7)%32, (i*5)%16, (i*3)%8); err != nil {
			t.Fatal(err)
		}
	}
	rel, err := pub.Publish(context.Background(), "privelet+", privelet.Params{Epsilon: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(schema, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(3*query.DefaultStreamChunk+123, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := workload.WriteQueries(&body, schema, queries); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		want, err := rel.CountBatch(context.Background(), queries, workers)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		src := workload.Stream(schema, workload.NewLineSpecs(bytes.NewReader(body.Bytes())))
		n, err := rel.CountStream(context.Background(), src, func(a []float64) error {
			got = append(got, a...)
			return nil
		}, workers)
		if err != nil || n != len(want) || len(got) != len(want) {
			t.Fatalf("workers=%d: delivered %d, appended %d, err %v; want %d", workers, n, len(got), err, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: answer %d = %v, CountBatch %v", workers, i, got[i], want[i])
			}
		}
	}
}

// queryEval digs the release's evaluator out via a probe answer — the
// public surface does not export it, and the internal Batch needs one.
// Building a fresh evaluator over the release's matrix is equivalent:
// the evaluator is a pure function of the noisy matrix.
func queryEval(t *testing.T, rel *privelet.Release, probe privelet.Query) *query.Evaluator {
	t.Helper()
	ev := query.NewEvaluator(rel.Matrix())
	a, err := ev.Count(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rel.Count(probe)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("rebuilt evaluator disagrees with the release: %v vs %v", a, b)
	}
	return ev
}
