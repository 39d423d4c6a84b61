package postprocess

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/rng"
)

func noisyMatrix(seed uint64) *matrix.Matrix {
	m := matrix.MustNew(6, 6)
	r := rng.New(seed)
	data := m.Data()
	for i := range data {
		data[i] = r.Float64()*10 - 3
	}
	return m
}

func TestNonNegative(t *testing.T) {
	m := noisyMatrix(1)
	NonNegative(m)
	for _, v := range m.Data() {
		if v < 0 {
			t.Fatal("negative entry survived NonNegative")
		}
	}
}

func TestNonNegativePreservesPositive(t *testing.T) {
	m := matrix.MustNew(2, 2)
	m.Set(3.5, 0, 1)
	m.Set(-2, 1, 0)
	NonNegative(m)
	if m.At(0, 1) != 3.5 {
		t.Error("positive entry changed")
	}
	if m.At(1, 0) != 0 {
		t.Error("negative entry not clamped to 0")
	}
}

func TestRound(t *testing.T) {
	m := matrix.MustNew(3)
	m.Set(1.4, 0)
	m.Set(1.5, 1)
	m.Set(-2.6, 2)
	Round(m)
	if m.At(0) != 1 || m.At(1) != 2 || m.At(2) != -3 {
		t.Fatalf("Round gave %v %v %v", m.At(0), m.At(1), m.At(2))
	}
}

func TestSanitize(t *testing.T) {
	m := noisyMatrix(2)
	Sanitize(m)
	for _, v := range m.Data() {
		if v < 0 {
			t.Fatal("Sanitize left a negative entry")
		}
		if v != math.Trunc(v) {
			t.Fatal("Sanitize left a non-integer entry")
		}
	}
}

func TestSanitizeReturnsSameMatrix(t *testing.T) {
	m := noisyMatrix(3)
	if Sanitize(m) != m {
		t.Fatal("Sanitize should operate in place and return its argument")
	}
}

func TestSanitizeImprovesSmallCounts(t *testing.T) {
	// On a sparse true matrix (mostly zeros), clamping negatives reduces
	// total squared error of a Laplace release on average.
	r := rng.New(4)
	truth := matrix.MustNew(20, 20)
	truth.Set(40, 3, 3) // a single heavy cell
	var rawErr, cleanErr float64
	for trial := 0; trial < 200; trial++ {
		noisy := truth.Clone()
		data := noisy.Data()
		for i := range data {
			data[i] += r.Laplace(2)
		}
		clean := noisy.Clone()
		NonNegative(clean)
		for i, tv := range truth.Data() {
			rawErr += (noisy.Data()[i] - tv) * (noisy.Data()[i] - tv)
			cleanErr += (clean.Data()[i] - tv) * (clean.Data()[i] - tv)
		}
	}
	if cleanErr >= rawErr {
		t.Fatalf("NonNegative did not reduce error on sparse data: %v vs %v", cleanErr, rawErr)
	}
}
