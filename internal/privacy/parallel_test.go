package privacy

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/rng"
)

// fillSequential gives every entry a distinct deterministic value so an
// accidental entry permutation cannot cancel out in comparisons.
func fillSequential(m *matrix.Matrix) {
	data := m.Data()
	for i := range data {
		data[i] = float64(i % 1009)
	}
}

// TestInjectLaplaceUniformParallelismInvariance is the injection
// fan-out's central property: for a fixed seed the noised matrix is
// bit-identical (float64 ==) at parallelism 1, 4, and GOMAXPROCS. The
// matrix spans several NoiseChunk granules plus a ragged tail so the
// chunk counter, the worker hand-off, and the last short chunk are all
// exercised.
func TestInjectLaplaceUniformParallelismInvariance(t *testing.T) {
	const seed = 31
	dims := []int{3, NoiseChunk + 4321} // ~3.07 chunks
	base := matrix.MustNew(dims...)
	fillSequential(base)
	if err := InjectLaplaceUniformCtx(context.Background(), base, 1.5, seed, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 64} {
		m := matrix.MustNew(dims...)
		fillSequential(m)
		if err := InjectLaplaceUniformCtx(context.Background(), m, 1.5, seed, workers); err != nil {
			t.Fatal(err)
		}
		for i, v := range m.Data() {
			if v != base.Data()[i] {
				t.Fatalf("workers=%d: entry %d = %v, serial %v", workers, i, v, base.Data()[i])
			}
		}
	}
}

// TestInjectLaplaceParallelismInvariance is the weighted analogue, with
// zero weights sprinkled in so the skip-a-draw path is covered: a chunk's
// stream must advance only on its own non-zero-weight entries.
func TestInjectLaplaceParallelismInvariance(t *testing.T) {
	const seed = 77
	dims := []int{5, 3, NoiseChunk/2 + 913} // ~2.5 chunks
	wv := [][]float64{
		{1, 2, 0, 4, 1},
		{1, 0.5, 3},
		make([]float64, dims[2]),
	}
	for i := range wv[2] {
		wv[2][i] = float64(1 + i%7)
		if i%11 == 0 {
			wv[2][i] = 0
		}
	}
	base := matrix.MustNew(dims...)
	fillSequential(base)
	if err := InjectLaplace(base, wv, 2.5, seed); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		m := matrix.MustNew(dims...)
		fillSequential(m)
		if err := InjectLaplaceCtx(context.Background(), m, wv, 2.5, seed, workers); err != nil {
			t.Fatal(err)
		}
		for i, v := range m.Data() {
			if v != base.Data()[i] {
				t.Fatalf("workers=%d: entry %d = %v, serial %v", workers, i, v, base.Data()[i])
			}
		}
	}
}

// TestInjectLaplaceMatchesCoordsReference pins the weighted pass's
// row walk against the definition it optimizes: entry at flat offset
// off receives Laplace(λ/∏ᵢ wv[i][cᵢ]) — coordinates recovered by
// per-entry division — drawn in offset order from its chunk's substream,
// zero-weight entries consuming no draw. The parallelism-invariance
// tests compare the implementation to itself and would miss a walk that
// drifted from the coordinate definition; this reference would not. The
// shapes put zero weights at row starts and mid-row, let runs of
// nonzero weights span rows and blocks, start a chunk mid-row, and
// include a 1-D matrix and rows one entry wide.
func TestInjectLaplaceMatchesCoordsReference(t *testing.T) {
	const seed, lambda = 99, 1.75
	// weights returns n weights 1 + i%13, zero where i%zeroEvery == zeroAt.
	weights := func(n, zeroEvery, zeroAt int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + i%13)
			if i%zeroEvery == zeroAt {
				w[i] = 0
			}
		}
		return w
	}
	for _, tc := range []struct {
		name string
		dims []int
		wv   [][]float64
	}{
		// ~1.5 chunks, odometer carries across two dims.
		{"rows start at zero", []int{3, 4, NoiseChunk/8 + 37}, [][]float64{
			{1, 0.25, 3}, {2, 0, 1, 0.5}, weights(NoiseChunk/8+37, 17, 0),
		}},
		// 511-entry rows: chunk 1 starts mid-row, and runs cross rows.
		{"runs across rows", []int{9, 5, 3, 511}, [][]float64{
			weights(9, 4, 3), {1, 0, 2, 0.5, 3}, {0.75, 1, 1.5}, weights(511, 37, 5),
		}},
		{"one dimension", []int{NoiseChunk + 300}, [][]float64{weights(NoiseChunk+300, 29, 3)}},
		{"rows one wide", []int{7, 3000, 1}, [][]float64{weights(7, 5, 2), weights(3000, 11, 4), {0.5}}},
	} {
		got := matrix.MustNew(tc.dims...)
		fillSequential(got)
		if err := InjectLaplace(got, tc.wv, lambda, seed); err != nil {
			t.Fatal(err)
		}
		want := matrix.MustNew(tc.dims...)
		fillSequential(want)
		data := want.Data()
		coords := make([]int, len(tc.dims))
		for k := 0; k*NoiseChunk < len(data); k++ {
			src := rng.Substream(seed, uint64(k))
			lo := k * NoiseChunk
			for off := lo; off < min(lo+NoiseChunk, len(data)); off++ {
				want.Coords(off, coords)
				w := 1.0
				for i, ci := range coords {
					w *= tc.wv[i][ci]
				}
				if w == 0 {
					continue
				}
				data[off] += src.Laplace(lambda / w)
			}
		}
		for i, v := range got.Data() {
			if math.Float64bits(v) != math.Float64bits(data[i]) {
				t.Fatalf("%s: entry %d = %v, reference %v", tc.name, i, v, data[i])
			}
		}
	}
}

// TestInjectLaplaceUniformChunkNumbering pins the contract itself, not
// just self-consistency: entry i's noise comes from the i-th position of
// rng.Substream(seed, i/NoiseChunk). If the numbering scheme ever
// drifted, parallel-vs-serial comparisons would still agree with each
// other and miss it; this test would not.
func TestInjectLaplaceUniformChunkNumbering(t *testing.T) {
	const seed, mag = 123, 0.75
	n := NoiseChunk + 100
	m := matrix.MustNew(n)
	if err := InjectLaplaceUniformCtx(context.Background(), m, mag, seed, 1); err != nil {
		t.Fatal(err)
	}
	data := m.Data()
	for _, probe := range []int{0, 1, NoiseChunk - 1, NoiseChunk, NoiseChunk + 99} {
		chunk := probe / NoiseChunk
		src := rng.Substream(seed, uint64(chunk))
		var want float64
		for i := chunk * NoiseChunk; i <= probe; i++ {
			want = src.Laplace(mag)
		}
		if data[probe] != want {
			t.Errorf("entry %d = %v, want draw %v from Substream(seed, %d)", probe, data[probe], want, chunk)
		}
	}
}

// TestInjectLaplaceVarianceUnchangedByChunking checks the statistical
// contract survives the fan-out: pooled noise still has mean ~0 and
// variance ~2b² per entry (Equation 1), i.e. chunked substreams did not
// correlate or rescale anything.
func TestInjectLaplaceVarianceUnchangedByChunking(t *testing.T) {
	m := matrix.MustNew(4, NoiseChunk) // 4 full chunks
	const mag = 2.0
	if err := InjectLaplaceUniformCtx(context.Background(), m, mag, 5, 4); err != nil {
		t.Fatal(err)
	}
	sum, sumSq := 0.0, 0.0
	for _, v := range m.Data() {
		sum += v
		sumSq += v * v
	}
	n := float64(m.Len())
	mean := sum / n
	variance := sumSq/n - mean*mean
	want := 2 * mag * mag
	if math.Abs(mean) > 0.1 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-want) > 0.1*want {
		t.Errorf("variance = %v, want ~%v", variance, want)
	}
}

// TestInjectLaplacePreCancelled: a dead context stops the pass before
// chunk 0, leaving the matrix untouched.
func TestInjectLaplacePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := matrix.MustNew(NoiseChunk * 2)
	if err := InjectLaplaceUniformCtx(ctx, m, 1, 1, 4); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, v := range m.Data() {
		if v != 0 {
			t.Fatalf("entry %d noised after pre-cancelled pass", i)
		}
	}
	wv := [][]float64{make([]float64, m.Dim(0))}
	for i := range wv[0] {
		wv[0][i] = 1
	}
	if err := InjectLaplaceCtx(ctx, m, wv, 1, 1, 4); err != context.Canceled {
		t.Fatalf("weighted err = %v, want context.Canceled", err)
	}
}

// TestInjectLaplaceCancelMidPass cancels a pooled pass while it runs and
// checks that it returns the context error promptly and leaks no
// goroutines — the cancellation happens BETWEEN chunks, so workers join
// after finishing at most one chunk each.
func TestInjectLaplaceCancelMidPass(t *testing.T) {
	before := runtime.NumGoroutine()
	// 64 chunks: plenty of cancellation points for 4 workers.
	m := matrix.MustNew(64, NoiseChunk)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- InjectLaplaceUniformCtx(ctx, m, 1, 9, 4)
	}()
	time.Sleep(500 * time.Microsecond)
	cancel()
	select {
	case err := <-done:
		// nil means the pass beat the cancel — possible, still leak-free.
		if err != nil && err != context.Canceled {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled injection did not return")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}
