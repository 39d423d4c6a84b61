package matrix

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
)

// referencePrefixSum is the summed-area build as a scan-at-a-time loop:
// every scan along every dimension accumulates left to right on its own,
// as PrefixSumExec did before it advanced strided scans a row at a time.
func referencePrefixSum(m *Matrix) {
	for dim := range m.dims {
		size, stride := m.dims[dim], m.strides[dim]
		scans := len(m.data) / size
		for v := 0; v < scans; v++ {
			off := v/stride*size*stride + v%stride
			for j := 1; j < size; j++ {
				m.data[off+j*stride] += m.data[off+(j-1)*stride]
			}
		}
	}
}

// TestPrefixSumExecEquivalence is the evaluator build's determinism
// property: on randomized shapes and fills, PrefixSumExec at any worker
// count produces exactly (float64 ==) the table of the scan-at-a-time
// reference loop, so advancing strided scans a row at a time and
// splitting them across workers reassociates no addition. The shapes
// are drawn from a seeded generator so failures replay; they include
// 1-D (which must degrade to the serial scan), skewed and cubic shapes,
// and dimensions of size 1.
func TestPrefixSumExecEquivalence(t *testing.T) {
	r := rng.New(424242)
	for trial := 0; trial < 40; trial++ {
		d := 1 + r.Intn(4)
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 1 + r.Intn(24)
		}
		m := MustNew(dims...)
		data := m.Data()
		for i := range data {
			data[i] = r.Float64() * 100
		}
		want := m.Clone()
		referencePrefixSum(want)
		for _, workers := range []int{1, 2, 3, 8, runtime.GOMAXPROCS(0) + 1} {
			got := m.Clone()
			got.PrefixSumExec(workers)
			for i := range data {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("trial %d dims %v workers %d: entry %d = %v, reference %v",
						trial, dims, workers, i, got.Data()[i], want.Data()[i])
				}
			}
		}
	}
}

// TestPrefixSumExecRangeSum checks the pooled table is not just
// self-consistent but correct: RangeSum over it matches NaiveRangeSum on
// the original matrix.
func TestPrefixSumExecRangeSum(t *testing.T) {
	m := randomMatrix(t, 99, 9, 7, 11)
	p := m.Clone()
	p.PrefixSumExec(8)
	lo, hi := []int{1, 0, 3}, []int{7, 5, 9}
	want, err := m.NaiveRangeSum(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RangeSum(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("RangeSum over pooled table = %v, want %v", got, want)
	}
}

// TestApplyAlongPoolCtxPreCancelled: a dead context must surface ctx's
// error and no matrix — never a partially-written result — on both the
// serial and pooled paths, and through a Pipeline.
func TestApplyAlongPoolCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := randomMatrix(t, 7, 32, 64)
	for _, workers := range []int{1, 4} {
		out, err := m.ApplyAlongPoolCtx(ctx, 0, 32, workers, SharedKernel(reverseKernel))
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: cancelled apply returned a matrix", workers)
		}
	}
	p := NewPipeline()
	out, err := p.ApplyAlongCtx(ctx, m, 1, 64, 2, SharedKernel(reverseKernel))
	if err != context.Canceled || out != nil {
		t.Fatalf("pipeline: out=%v err=%v, want nil/context.Canceled", out, err)
	}
	// The pipeline stays usable after an aborted pass.
	if _, err := p.ApplyAlongCtx(context.Background(), m, 1, 64, 2, SharedKernel(reverseKernel)); err != nil {
		t.Fatalf("pipeline unusable after aborted pass: %v", err)
	}
}

// TestApplyAlongPoolCtxSelfCancel is the deterministic mid-pass
// regression: a kernel pulls the plug on the FIRST vector, and the pass
// must still abort at its next 64Ki-entry check with ctx.Err() and no
// matrix — before PR 4 the chunk loop never looked at the context, so a
// single-sub-matrix pass always ran to completion.
func TestApplyAlongPoolCtxSelfCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const vecLen, vectors = 64, 8192 // check granule = 1024 vectors
	m := MustNew(vecLen, vectors)
	calls := 0
	saboteur := func(src, dst []float64) {
		if calls == 0 {
			cancel()
		}
		calls++
		copy(dst, src)
	}
	out, err := m.ApplyAlongPoolCtx(ctx, 0, vecLen, 1, SharedKernel(saboteur))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled apply returned a partial matrix")
	}
	if calls >= vectors {
		t.Fatalf("pass ran to completion (%d vectors) despite mid-pass cancel", calls)
	}
}

// TestApplyAlongPoolCtxCancelMidPass cancels a long apply while its
// workers are inside their chunk loops and checks the call returns the
// context error promptly with no goroutines left behind — the
// mid-transform granularity the SA = ∅ publish path relies on.
func TestApplyAlongPoolCtxCancelMidPass(t *testing.T) {
	before := runtime.NumGoroutine()
	// 2048 vectors of length 4096 = 8M entries ≈ 128 cancellation points
	// per full sweep at the 64Ki-entry check granule.
	m := MustNew(4096, 2048)
	slow := func(src, dst []float64) {
		for j := range dst {
			dst[j] = src[j] * 1.000001
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.ApplyAlongPoolCtx(ctx, 0, 4096, 2, SharedKernel(slow))
		done <- err
	}()
	time.Sleep(500 * time.Microsecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && err != context.Canceled {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled apply did not return")
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
