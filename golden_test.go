package privelet_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	privelet "repro"
	"repro/internal/dataset"
)

// goldenAccounting is a release's accounting as the Release reports it;
// == on it compares the floats exactly.
type goldenAccounting struct {
	mechanism                   string
	epsilon, rho, lambda, bound float64
}

func accountingOf(r *privelet.Release) goldenAccounting {
	return goldenAccounting{r.Mechanism(), r.Epsilon(), r.Sensitivity(), r.Lambda(), r.VarianceBound()}
}

// matrixDigest is the sha256 of M*'s entries as little-endian float64
// bits, in row-major order.
func matrixDigest(m *privelet.Matrix) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range m.Data() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenReleases pins the bytes and the accounting of a release per
// built-in mechanism at a fixed seed: the paper's Table I and a
// small-scale census table (524,288 cells: 8 noise chunks for
// "privelet" and "basic", 128 sub-matrices for "privelet+" with
// SA = {Age, Gender}) through the three Figure-5 mechanisms, and a
// 16-cell histogram through "hay". Any change to the transforms, the
// noise draw, the SA split or λ shows here as a changed digest or
// value; the determinism tests compare a release only to itself. Each
// release is also saved and loaded, and must report the same
// accounting afterwards.
func TestGoldenReleases(t *testing.T) {
	medical, err := dataset.MedicalExample()
	if err != nil {
		t.Fatal(err)
	}
	census, err := dataset.GenerateCensus(dataset.BrazilSpec(dataset.ScaleSmall), 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	hist := privelet.NewTable(histSchema(t, 16))
	for i, v := range []int{0, 1, 1, 2, 3, 3, 3, 5, 8, 8, 9, 12, 12, 12, 12, 15} {
		for range 1 + i%3 {
			if err := hist.Append(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name, mech string
		table      *privelet.Table
		sa         []string
		eps        float64
		digest     string
		want       goldenAccounting
	}{
		{"table1/privelet+", "privelet+", medical, []string{"HasDiabetes"}, 1,
			"86fd058e9480547130f14d486931387182f7152f395943e5faad1de95d3cc35e",
			goldenAccounting{"privelet+", 1, 4, 8, 640}},
		{"table1/privelet", "privelet", medical, nil, 1,
			"9512bce5662af089699ab654fc1ba2fa2fc17592589f60e1ab575abd45dfcbe1",
			goldenAccounting{"privelet", 1, 8, 16, 5120}},
		{"table1/basic", "basic", medical, nil, 1,
			"08ad4ef3a25eda5c34186c41b0a16fa56f11f2782ffb3433abc27785a355eb94",
			goldenAccounting{"basic", 1, 1, 2, 80}},
		{"census/privelet+", "privelet+", census, []string{"Age", "Gender"}, 0.75,
			"696e35162b3cbcbb56beddd40d8a6f2f6d961a98de414f25a611423b80842829",
			goldenAccounting{"privelet+", 0.75, 21, 56, 1.2845056e+07}},
		{"census/privelet", "privelet", census, nil, 0.75,
			"9b3e26c03b6f93b8d49ef7bf9fc221690ec7a8b5c21f01be8a641b1c71366e83",
			goldenAccounting{"privelet", 0.75, 294, 784, 3.1470387199999994e+08}},
		{"census/basic", "basic", census, nil, 0.75,
			"0daede147a7d55c44ed6504924d6f0d745364ee2073ba8aaf667c287e2c7f90b",
			goldenAccounting{"basic", 0.75, 1, 2.6666666666666665, 7.456540444444444e+06}},
		{"hist16/hay", "hay", hist, nil, 0.5,
			"412f29c881198b20b61b942205b9f026dd889b38643ff9c6d5dd829d1d519436",
			goldenAccounting{"hay", 0.5, 5, 20, 6400}},
	} {
		rel, err := publishTable(t, c.table, c.mech, privelet.Params{Epsilon: c.eps, SA: c.sa, Seed: 2010})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := accountingOf(rel)
		if d := matrixDigest(rel.Matrix()); d != c.digest || got != c.want {
			t.Errorf("%s: digest %s, accounting %#v; want %s, %#v", c.name, d, got, c.digest, c.want)
		}
		var buf bytes.Buffer
		if err := rel.Save(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		loaded, err := privelet.Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if back := accountingOf(loaded); back != got {
			t.Errorf("%s: accounting after Save/Load %#v, before %#v", c.name, back, got)
		}
	}
}
