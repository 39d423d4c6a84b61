package matrix

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// randomMatrix fills a matrix with deterministic pseudo-random entries.
func randomMatrix(t *testing.T, seed uint64, dims ...int) *Matrix {
	t.Helper()
	m := MustNew(dims...)
	r := rng.New(seed)
	data := m.Data()
	for i := range data {
		data[i] = r.Float64()
	}
	return m
}

// reverseKernel maps src to dst reversed and scaled — stride-sensitive
// enough to catch index bugs, and size-changing when newSize != oldSize.
func reverseKernel(src, dst []float64) {
	for j := range dst {
		v := 0.0
		if j < len(src) {
			v = src[len(src)-1-j]
		}
		dst[j] = 2*v + float64(j)
	}
}

func TestApplyAlongPoolMatchesSerial(t *testing.T) {
	shapes := [][]int{{64}, {8, 16}, {4, 6, 8}, {3, 5, 7, 2}}
	for _, shape := range shapes {
		m := randomMatrix(t, 11, shape...)
		for dim := range shape {
			for _, newSize := range []int{shape[dim], shape[dim] * 2, 1} {
				want, err := m.ApplyAlong(dim, newSize, reverseKernel)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8, 64} {
					got, err := m.ApplyAlongPoolCtx(context.Background(), dim, newSize, workers, SharedKernel(reverseKernel))
					if err != nil {
						t.Fatal(err)
					}
					if d, _ := want.MaxAbsDiff(got); d != 0 {
						t.Fatalf("shape %v dim %d newSize %d workers %d: max diff %v",
							shape, dim, newSize, workers, d)
					}
				}
			}
		}
	}
}

func TestApplyAlongPoolPerWorkerKernels(t *testing.T) {
	// A kernel with private scratch must behave identically to a pure
	// kernel when each worker gets its own instance from the factory.
	m := randomMatrix(t, 5, 16, 32)
	factory := func(int) VecFunc {
		scratch := make([]float64, 32)
		return func(src, dst []float64) {
			copy(scratch, src)
			for j := range dst {
				dst[j] = scratch[len(scratch)-1-j] * 3
			}
		}
	}
	want, err := m.ApplyAlongPoolCtx(context.Background(), 1, 32, 1, factory)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ApplyAlongPoolCtx(context.Background(), 1, 32, 7, factory)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := want.MaxAbsDiff(got); d != 0 {
		t.Fatalf("per-worker scratch kernels diverged: %v", d)
	}
}

func TestPipelineChainMatchesAllocating(t *testing.T) {
	// A chained pad → transform → shrink pass through one pipeline must
	// equal the same chain through plain ApplyAlong, at several worker
	// counts, and must not allocate distinct results per step.
	m := randomMatrix(t, 21, 6, 10)
	chain := func(apply func(cur *Matrix, dim, newSize int) *Matrix) *Matrix {
		cur := apply(m, 0, 8)    // grow dim 0
		cur = apply(cur, 1, 16)  // grow dim 1
		cur = apply(cur, 0, 6)   // shrink dim 0 back
		return apply(cur, 1, 10) // shrink dim 1 back
	}
	want := chain(func(cur *Matrix, dim, newSize int) *Matrix {
		out, err := cur.ApplyAlong(dim, newSize, reverseKernel)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	for _, workers := range []int{1, 4} {
		p := NewPipeline()
		got := chain(func(cur *Matrix, dim, newSize int) *Matrix {
			out, err := p.ApplyAlongCtx(context.Background(), cur, dim, newSize, workers, SharedKernel(reverseKernel))
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
		if d, _ := want.MaxAbsDiff(got); d != 0 {
			t.Fatalf("workers %d: pipeline chain diverged by %v", workers, d)
		}
	}
}

func TestPipelineReusesBuffers(t *testing.T) {
	// After warm-up, repeated passes through the same pipeline must reuse
	// backing storage rather than allocate: the result of pass k and pass
	// k+2 share a buffer, so the pass-k matrix is invalidated.
	p := NewPipeline()
	m := randomMatrix(t, 3, 8, 8)
	first, err := p.ApplyAlongCtx(context.Background(), m, 0, 8, 1, SharedKernel(reverseKernel))
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.ApplyAlongCtx(context.Background(), first, 1, 8, 1, SharedKernel(reverseKernel))
	if err != nil {
		t.Fatal(err)
	}
	third, err := p.ApplyAlongCtx(context.Background(), second, 0, 8, 1, SharedKernel(reverseKernel))
	if err != nil {
		t.Fatal(err)
	}
	if &first.Data()[0] != &third.Data()[0] {
		t.Fatal("pass 1 and pass 3 should ping-pong onto the same buffer")
	}
	if &second.Data()[0] == &third.Data()[0] {
		t.Fatal("consecutive passes must not share a buffer")
	}
}

func TestPipelineNeverOverwritesInput(t *testing.T) {
	// Feeding the latest pipeline result back in (even after an external
	// detour would have flipped parity) must not write into the input's
	// own buffer: the aliasing guard redirects to the other buffer.
	p := NewPipeline()
	m := randomMatrix(t, 8, 4, 4)
	a, err := p.ApplyAlongCtx(context.Background(), m, 0, 4, 1, SharedKernel(reverseKernel))
	if err != nil {
		t.Fatal(err)
	}
	aCopy := a.Clone()
	b, err := p.ApplyAlongCtx(context.Background(), a, 1, 4, 1, SharedKernel(reverseKernel))
	if err != nil {
		t.Fatal(err)
	}
	if &a.Data()[0] == &b.Data()[0] {
		t.Fatal("output aliases its input buffer")
	}
	// a itself must still hold its original values right after the call
	// (it is only invalidated by the *next* use of its buffer).
	if d, _ := a.MaxAbsDiff(aCopy); d != 0 {
		t.Fatalf("input overwritten during apply: %v", d)
	}
}

func TestSubIntoMatchesSubAndReuses(t *testing.T) {
	m := randomMatrix(t, 13, 3, 4, 5)
	var buf *Matrix
	for c0 := 0; c0 < 3; c0++ {
		for c2 := 0; c2 < 5; c2++ {
			want, err := m.SubInto([]int{0, 2}, []int{c0, c2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.SubInto([]int{0, 2}, []int{c0, c2}, buf)
			if err != nil {
				t.Fatal(err)
			}
			if buf != nil && got != buf {
				t.Fatal("SubInto allocated despite a correctly-shaped destination")
			}
			buf = got
			if d, _ := want.MaxAbsDiff(got); d != 0 {
				t.Fatalf("coords (%d,%d): SubInto diverged by %v", c0, c2, d)
			}
		}
	}
	// Shape mismatch must reallocate, not corrupt.
	wrong := MustNew(7)
	got, err := m.SubInto([]int{0, 2}, []int{1, 1}, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if got == wrong {
		t.Fatal("SubInto reused a wrongly-shaped destination")
	}
}

// TestForEachRangeSchedules pins both schedules of the pool. With runs =
// workers, worker w runs exactly [w·n/workers, (w+1)·n/workers) — the
// fixed split the per-worker kernel cache relies on. With runs = total,
// every index runs exactly once, as its own one-index run.
func TestForEachRangeSchedules(t *testing.T) {
	const n = 103
	for _, workers := range []int{-1, 0, 1, 3, 4, 200} {
		eff := max(min(workers, n), 1)
		var mu sync.Mutex
		got := map[int][2]int{}
		err := ForEachRange(n, workers, workers, func(w, lo, hi int) error {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[w]; dup {
				t.Errorf("workers=%d: worker %d ran twice", workers, w)
			}
			got[w] = [2]int{lo, hi}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != eff {
			t.Fatalf("workers=%d: %d workers ran, want %d", workers, len(got), eff)
		}
		for w := 0; w < eff; w++ {
			if want := [2]int{w * n / eff, (w + 1) * n / eff}; got[w] != want {
				t.Fatalf("workers=%d: worker %d ran %v, want %v", workers, w, got[w], want)
			}
		}

		var hits [n]atomic.Int32
		err = ForEachRange(n, workers, n, func(w, lo, hi int) error {
			if hi != lo+1 || w < 0 || w >= eff {
				t.Errorf("workers=%d: worker %d ran [%d, %d)", workers, w, lo, hi)
			}
			hits[lo].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	if err := ForEachRange(0, 4, 4, func(int, int, int) error {
		t.Error("run called on an empty total")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachRangeLowestError: the error of the lowest failing run wins
// at both schedules, whichever failure happens first. In the fixed split
// run 0 fails last; claiming one index at a time, index 7 fails after
// index 50 has already failed and stopped new claims, yet index 7 and
// every index below it ran, because a claimed run is never skipped.
func TestForEachRangeLowestError(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		err := ForEachRange(4, 4, 4, func(_, lo, _ int) error {
			if lo == 0 {
				time.Sleep(time.Millisecond)
			}
			return fmt.Errorf("range %d", lo)
		})
		if err == nil || err.Error() != "range 0" {
			t.Fatalf("trial %d, fixed split: err = %v, want range 0", trial, err)
		}

		var ran [100]atomic.Bool
		err = ForEachRange(100, 4, 100, func(_, lo, _ int) error {
			ran[lo].Store(true)
			switch lo {
			case 7:
				time.Sleep(time.Millisecond)
				return fmt.Errorf("index %d", lo)
			case 50:
				return fmt.Errorf("index %d", lo)
			}
			return nil
		})
		if err == nil || err.Error() != "index 7" {
			t.Fatalf("trial %d, one at a time: err = %v, want index 7", trial, err)
		}
		for i := 0; i <= 7; i++ {
			if !ran[i].Load() {
				t.Fatalf("trial %d: index %d below the lowest failure never ran", trial, i)
			}
		}
	}

	// One worker stops at its first failure: nothing after it runs.
	calls := 0
	err := ForEachRange(10, 1, 10, func(_, lo, _ int) error {
		calls++
		if lo == 3 {
			return fmt.Errorf("index %d", lo)
		}
		return nil
	})
	if err == nil || err.Error() != "index 3" || calls != 4 {
		t.Fatalf("serial: err = %v after %d calls, want index 3 after 4", err, calls)
	}
}
