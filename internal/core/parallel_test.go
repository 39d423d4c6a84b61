package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/matrix"
)

// publishAt publishes the same table at a given parallelism.
func publishAt(t *testing.T, tbl *dataset.Table, sa []string, par int) *Result {
	t.Helper()
	res, err := publishTable(t, tbl, Options{Epsilon: 1, SA: sa, Seed: 99, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPublishParallelismInvariance is the engine's central property: for
// a fixed seed, the released matrix is bit-identical at parallelism 1, 4,
// and GOMAXPROCS, across SA configurations covering plain Privelet (no
// sub-matrix fan-out), Privelet+ (many sub-matrices), and the Basic
// degenerate case.
func TestPublishParallelismInvariance(t *testing.T) {
	tbl := smallCensus(t, 2000, 3)
	saConfigs := [][]string{
		nil,                             // plain Privelet: 1 sub-matrix, vector-level fan-out
		{"Gender"},                      // 2 sub-matrices
		{"Age", "Gender"},               // 128 sub-matrices
		{"Age", "Gender", "Occupation"}, // SA-heavy: tiny rest transform
		{"Age", "Gender", "Occupation", "Income"}, // Basic mechanism
	}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, sa := range saConfigs {
		base := publishAt(t, tbl, sa, levels[0])
		for _, par := range levels[1:] {
			got := publishAt(t, tbl, sa, par)
			d, err := base.Noisy.MaxAbsDiff(got.Noisy)
			if err != nil {
				t.Fatal(err)
			}
			if d != 0 {
				t.Errorf("SA=%v: parallelism %d release differs from serial by %v", sa, par, d)
			}
			if got.Lambda != base.Lambda || got.Rho != base.Rho || got.VarianceBound != base.VarianceBound {
				t.Errorf("SA=%v: accounting differs across parallelism levels", sa)
			}
		}
	}
}

// TestPublishParallelismExceedsWork checks the degenerate pool shapes:
// more workers than sub-matrices, and more workers than vectors.
func TestPublishParallelismExceedsWork(t *testing.T) {
	tbl := smallCensus(t, 500, 4)
	base := publishAt(t, tbl, []string{"Age", "Gender"}, 1)
	wild := publishAt(t, tbl, []string{"Age", "Gender"}, 1000)
	if d, _ := base.Noisy.MaxAbsDiff(wild.Noisy); d != 0 {
		t.Errorf("parallelism 1000 release differs from serial by %v", d)
	}
}

// TestPublishInputUnmodified: the engine reads the input matrix from many
// goroutines but must never write it.
func TestPublishInputUnmodified(t *testing.T) {
	tbl := smallCensus(t, 1000, 5)
	m, err := tbl.FrequencyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	before := m.Clone()
	if _, err := PublishMatrix(context.Background(), m, tbl.Schema(), Options{Epsilon: 1, SA: []string{"Age"}, Seed: 1, Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
	if d, _ := m.MaxAbsDiff(before); d != 0 {
		t.Fatalf("input matrix modified by publish (max diff %v)", d)
	}
}

// TestPublishDefaultParallelism: Parallelism ≤ 0 must behave like
// GOMAXPROCS, i.e. still produce the seed-determined release.
func TestPublishDefaultParallelism(t *testing.T) {
	tbl := smallCensus(t, 500, 6)
	a := publishAt(t, tbl, []string{"Gender"}, 0)
	b := publishAt(t, tbl, []string{"Gender"}, runtime.GOMAXPROCS(0))
	if d, _ := a.Noisy.MaxAbsDiff(b.Noisy); d != 0 {
		t.Errorf("default parallelism release differs by %v", d)
	}
}

// TestPublishCancelMidTransformNoSA is the PR-4 regression for the
// cancellation-granularity fix: an SA = ∅ publish is ONE sub-matrix, so
// before ctx reached the ApplyAlong chunk loops the engine only observed
// cancellation between transform steps — effectively at the start. With
// the fix, cancelling while the (multi-second-sized) transform is in
// flight aborts mid-pass: the publish returns ctx's error promptly, no
// Result is handed out, and no worker goroutines linger.
func TestPublishCancelMidTransformNoSA(t *testing.T) {
	// 2048×512 = 1M entries: each wavelet step sweeps ~16 chunk-granule
	// cancellation points, so a cancel during the pass is observed well
	// before the pass ends.
	schema := dataset.MustSchema(dataset.OrdinalAttr("A", 2048), dataset.OrdinalAttr("B", 512))
	m, err := matrix.New(schema.Dims()...)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var pubErr error
	go func() {
		defer close(done)
		res, pubErr = PublishMatrix(ctx, m, schema, Options{Epsilon: 1, Seed: 11, Parallelism: 2})
	}()
	time.Sleep(500 * time.Microsecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled SA=∅ publish did not return")
	}
	if pubErr != nil {
		if !errors.Is(pubErr, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", pubErr)
		}
		if res != nil {
			t.Fatal("cancelled publish returned a partial Result")
		}
	}
	// Whether the publish lost or won the race, its workers must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPublishCancelledNoSADeterministic is the race-free form: a publish
// whose context dies on the first wavelet kernel call must abort inside
// the transform (the Figure-5 pipeline never reaches noise injection),
// proven by a context that a timer cannot miss — it is cancelled before
// the call, and the SA = ∅ path must return its error without producing
// a release.
func TestPublishCancelledNoSADeterministic(t *testing.T) {
	schema := dataset.MustSchema(dataset.OrdinalAttr("A", 256), dataset.OrdinalAttr("B", 64))
	m, err := matrix.New(schema.Dims()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PublishMatrix(ctx, m, schema, Options{Epsilon: 1, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled publish returned a Result")
	}
}
