package privelet_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	privelet "repro"
	"repro/internal/hay"
)

// histSchema returns a one-dimensional schema every mechanism (including
// "hay") accepts.
func histSchema(t testing.TB, size int) *privelet.Schema {
	t.Helper()
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("Age", size))
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func histFrequency(t testing.TB, size int, rows []int) *privelet.Frequency {
	t.Helper()
	pub, err := privelet.NewPublisher(histSchema(t, size))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := pub.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return pub.Frequency()
}

func TestMechanismRegistryNames(t *testing.T) {
	// The registry is process-global and other tests in this binary
	// register throwaway mechanisms under the "test-" prefix; only the
	// built-ins are pinned here.
	var got []string
	for _, name := range privelet.Mechanisms() {
		if !strings.HasPrefix(name, "test-") {
			got = append(got, name)
		}
	}
	want := []string{"basic", "hay", "privelet", "privelet+"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Mechanisms() = %v, want %v", got, want)
	}
	for _, name := range want {
		m, err := privelet.MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("mechanism %q reports Name() = %q", name, m.Name())
		}
	}
}

func TestMechanismUnknownName(t *testing.T) {
	_, err := privelet.MechanismByName("fourier")
	if err == nil {
		t.Fatal("lookup of unknown mechanism succeeded")
	}
	// The error doubles as a user-facing message: it must name the
	// offender and list what is available.
	for _, frag := range []string{"fourier", "privelet+", "basic", "hay"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
	if _, err := privelet.PublishWith(context.Background(), "fourier", histFrequency(t, 8, nil), privelet.Params{Epsilon: 1}); err == nil {
		t.Fatal("PublishWith accepted an unknown mechanism")
	}
}

// renamedMech wraps a registered mechanism under a new name, for
// registration tests.
type renamedMech struct {
	privelet.Mechanism
	name string
}

func (m renamedMech) Name() string { return m.name }

func TestRegisterMechanism(t *testing.T) {
	base, err := privelet.MechanismByName("basic")
	if err != nil {
		t.Fatal(err)
	}
	if err := privelet.RegisterMechanism(renamedMech{base, ""}); err == nil {
		t.Fatal("registered a mechanism with an empty name")
	}
	// Names travel through CLI flags, query params (where the server maps
	// spaces back to '+') and the codec header: whitespace must be
	// rejected at registration.
	for _, bad := range []string{"my mech", "tab\tname", "line\nname"} {
		if err := privelet.RegisterMechanism(renamedMech{base, bad}); err == nil {
			t.Fatalf("registered mechanism with whitespace name %q", bad)
		}
	}
	if err := privelet.RegisterMechanism(renamedMech{base, "basic"}); err == nil {
		t.Fatal("registered a duplicate mechanism name")
	}
	// A fresh name registers and resolves; registration is process-wide,
	// so pick one no other test uses.
	if err := privelet.RegisterMechanism(renamedMech{base, "basic-alias-for-test"}); err != nil {
		t.Fatal(err)
	}
	rel, err := privelet.PublishWith(context.Background(), "basic-alias-for-test",
		histFrequency(t, 8, []int{1, 2, 3}), privelet.Params{Epsilon: 1e9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Mechanism() != "basic-alias-for-test" {
		t.Fatalf("release mechanism = %q", rel.Mechanism())
	}
}

// TestAllMechanismsPublishAndRoundTrip publishes the same histogram
// through every registered built-in and round-trips each release through
// the codec: counts answer sanely and the mechanism name survives.
func TestAllMechanismsPublishAndRoundTrip(t *testing.T) {
	rows := []int{0, 1, 1, 2, 3, 3, 3, 7}
	for _, name := range []string{"basic", "hay", "privelet", "privelet+"} {
		freq := histFrequency(t, 8, rows)
		rel, err := privelet.PublishWith(context.Background(), name, freq, privelet.Params{Epsilon: 1e9, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel.Mechanism() != name {
			t.Fatalf("%s: release mechanism = %q", name, rel.Mechanism())
		}
		q, err := rel.NewQuery().Range("Age", 0, 3).Build()
		if err != nil {
			t.Fatal(err)
		}
		count, err := rel.Count(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(count-7) > 1e-3 {
			t.Fatalf("%s: count = %v, want ~7 (ε huge)", name, count)
		}
		var buf bytes.Buffer
		if err := rel.Save(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loaded, err := privelet.Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.Mechanism() != name {
			t.Fatalf("%s: loaded mechanism = %q", name, loaded.Mechanism())
		}
		lcount, err := loaded.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if lcount != count {
			t.Fatalf("%s: loaded count %v != original %v", name, lcount, count)
		}
	}
}

// TestPriveletEqualsPlusWithoutSA: plain Privelet is Privelet+ with an
// empty SA, bit for bit.
func TestPriveletEqualsPlusWithoutSA(t *testing.T) {
	freq := histFrequency(t, 13, []int{0, 3, 3, 7, 12, 12, 12})
	plain, err := privelet.PublishWith(context.Background(), "privelet", freq, privelet.Params{Epsilon: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := privelet.PublishWith(context.Background(), "privelet+", freq, privelet.Params{Epsilon: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := plain.Matrix().MaxAbsDiff(plus.Matrix()); d != 0 {
		t.Fatalf("privelet vs privelet+ (no SA) diverged by %v", d)
	}
}

func TestMechanismSARejection(t *testing.T) {
	freq := histFrequency(t, 8, []int{1})
	p := privelet.Params{Epsilon: 1, SA: []string{"Age"}, Seed: 1}
	for _, name := range []string{"privelet", "basic", "hay"} {
		if _, err := privelet.PublishWith(context.Background(), name, freq, p); err == nil {
			t.Fatalf("mechanism %q accepted SA", name)
		}
	}
}

// TestMechanismsRefuseNonFiniteEpsilon: every built-in mechanism
// refuses an ε of NaN or ±Inf, in ValidateParams and in PublishWith. An
// infinite ε used to publish with λ = 0, releasing exact counts.
func TestMechanismsRefuseNonFiniteEpsilon(t *testing.T) {
	freq := histFrequency(t, 8, []int{1, 2, 2, 7})
	for _, name := range []string{"privelet+", "privelet", "basic", "hay"} {
		m, err := privelet.MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := privelet.Params{Epsilon: eps, Seed: 1}
			if err := privelet.ValidateParams(m, freq.Schema, p); err == nil {
				t.Errorf("%s: ValidateParams accepted epsilon %v", name, eps)
			}
			if _, err := privelet.PublishWith(context.Background(), name, freq, p); err == nil {
				t.Errorf("%s: PublishWith accepted epsilon %v", name, eps)
			}
		}
	}
}

// TestValidateParamsRefusesOverflowingLambda: an ε that passes the
// positive-and-finite test but makes λ = 2ρ/ε overflow is refused by the
// pre-ingest check of every Figure-5 mechanism with the error the
// engine's publish would give, so a front end refuses it before it
// reads the input or charges a ledger.
func TestValidateParamsRefusesOverflowingLambda(t *testing.T) {
	schema := histSchema(t, 8)
	for _, name := range []string{"privelet+", "privelet", "basic"} {
		m, err := privelet.MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		err = privelet.ValidateParams(m, schema, privelet.Params{Epsilon: 1e-308})
		if err == nil || !strings.Contains(err.Error(), "too small") {
			t.Errorf("%s: ValidateParams(ε = 1e-308) = %v, want λ's too-small error", name, err)
		}
	}
}

// TestValidateParamsPreIngest: every built-in offers the data-free
// pre-ingest check, and it agrees with Publish-time validation.
func TestValidateParamsPreIngest(t *testing.T) {
	schema := histSchema(t, 8)
	for _, c := range []struct {
		mech string
		p    privelet.Params
		ok   bool
	}{
		{"privelet+", privelet.Params{Epsilon: 1, SA: []string{"Age"}}, true},
		{"privelet+", privelet.Params{Epsilon: 1, SA: []string{"ghost"}}, false},
		{"privelet+", privelet.Params{Epsilon: 1, SA: []string{"Age", "Age"}}, false},
		{"privelet+", privelet.Params{Epsilon: 0}, false},
		{"privelet", privelet.Params{Epsilon: 1, SA: []string{"Age"}}, false},
		{"basic", privelet.Params{Epsilon: 1, SA: []string{"Age"}}, false},
		{"basic", privelet.Params{Epsilon: 1}, true},
		{"hay", privelet.Params{Epsilon: 1}, true},
		{"hay", privelet.Params{Epsilon: -1}, false},
	} {
		m, err := privelet.MechanismByName(c.mech)
		if err != nil {
			t.Fatal(err)
		}
		err = privelet.ValidateParams(m, schema, c.p)
		if (err == nil) != c.ok {
			t.Fatalf("%s %+v: err = %v, want ok=%v", c.mech, c.p, err, c.ok)
		}
	}
	// hay on a 2-D schema fails the pre-ingest check too.
	gender, err := privelet.FlatHierarchy(2)
	if err != nil {
		t.Fatal(err)
	}
	twoD, err := privelet.NewSchema(privelet.OrdinalAttr("Age", 4), privelet.NominalAttr("Gender", gender))
	if err != nil {
		t.Fatal(err)
	}
	hayMech, err := privelet.MechanismByName("hay")
	if err != nil {
		t.Fatal(err)
	}
	if err := privelet.ValidateParams(hayMech, twoD, privelet.Params{Epsilon: 1}); err == nil {
		t.Fatal("hay pre-ingest check accepted a 2-D schema")
	}
}

func TestHayMechanismOneDimensional(t *testing.T) {
	gender, err := privelet.FlatHierarchy(2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("Age", 4), privelet.NominalAttr("Gender", gender))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(context.Background(), "hay", privelet.Params{Epsilon: 1}); err == nil {
		t.Fatal("hay accepted a 2-D schema")
	}

	// 1-D: the release must agree with the underlying Hay et al.
	// mechanism run on the same histogram.
	rows := []int{0, 0, 1, 2, 2, 2, 3}
	rel, err := privelet.PublishWith(context.Background(), "hay",
		histFrequency(t, 4, rows), privelet.Params{Epsilon: 1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hay.Publish(context.Background(), []float64{2, 1, 3, 1}, 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range res.Histogram {
		if got := rel.Matrix().Data()[i]; got != want {
			t.Fatalf("entry %d: mechanism %v != hay.Publish %v", i, got, want)
		}
	}
	if rel.VarianceBound() <= 0 || math.IsInf(rel.VarianceBound(), 1) {
		t.Fatalf("hay variance bound = %v", rel.VarianceBound())
	}
}

// TestReleaseParallelismInvariance asserts the full public pipeline —
// mechanism, chunked noise injection, and the pooled prefix-sum
// evaluator build — yields bit-identical releases AND bit-identical
// query answers at parallelism 1, 4, and GOMAXPROCS. This is the
// Release-level face of the determinism contract (docs/ARCHITECTURE.md):
// the matrix-level invariance tests would not notice an evaluator whose
// pooled build reassociated sums.
func TestReleaseParallelismInvariance(t *testing.T) {
	// Large enough that the injection pass spans multiple 64Ki chunks
	// and the evaluator build fans out for real.
	const size = 1 << 18
	pub, err := privelet.NewPublisher(histSchema(t, size))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2000; r++ {
		if err := pub.Add((r * 131) % size); err != nil {
			t.Fatal(err)
		}
	}
	freq := pub.Frequency()
	for _, mech := range []string{"basic", "privelet"} {
		var base *privelet.Release
		for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			rel, err := privelet.PublishWith(context.Background(), mech, freq,
				privelet.Params{Epsilon: 1, Seed: 99, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = rel
				continue
			}
			wantM, gotM := base.Matrix().Data(), rel.Matrix().Data()
			for i := range wantM {
				if wantM[i] != gotM[i] {
					t.Fatalf("%s par=%d: released entry %d = %v, serial %v", mech, par, i, gotM[i], wantM[i])
				}
			}
			for _, span := range [][2]int{{0, size - 1}, {100, 5000}, {size / 2, size/2 + 3}} {
				q, err := rel.NewQuery().Range("Age", span[0], span[1]).Build()
				if err != nil {
					t.Fatal(err)
				}
				want, err := base.Count(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rel.Count(q)
				if err != nil {
					t.Fatal(err)
				}
				if want != got {
					t.Fatalf("%s par=%d: Count[%d..%d] = %v, serial %v", mech, par, span[0], span[1], got, want)
				}
			}
		}
	}
}

// TestPublishCancelledBeforeStart: an already-cancelled context fails
// every mechanism without publishing.
func TestPublishCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	freq := histFrequency(t, 64, []int{1, 5, 9})
	for _, name := range []string{"basic", "hay", "privelet", "privelet+"} {
		_, err := privelet.PublishWith(ctx, name, freq, privelet.Params{Epsilon: 1, Seed: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestPublishCancellationMidFlight cancels a many-sub-matrix publish
// while it is running and checks that it aborts with the context error
// and leaks no goroutines (the CI run repeats this under -race).
func TestPublishCancellationMidFlight(t *testing.T) {
	gender, err := privelet.FlatHierarchy(2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := privelet.NewSchema(
		privelet.OrdinalAttr("Income", 2048),
		privelet.OrdinalAttr("Block", 64),
		privelet.NominalAttr("Gender", gender),
	)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// 64×2 = 128 sub-matrices (SA = Block, Gender): plenty of
	// cancellation points for the fan-out workers.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pub.Publish(ctx, "privelet+", privelet.Params{
			Epsilon: 1, SA: []string{"Block", "Gender"}, Seed: 3, Parallelism: 4,
		})
		done <- err
	}()
	// Let the publish get going, then pull the plug. If it already
	// finished, the error is nil and the test still verifies no leak.
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("publish error = %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled publish did not return")
	}

	// Publish joins its workers before returning, so the goroutine count
	// must settle back to the baseline (give the runtime a moment).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}

	// The Publisher is still usable after an aborted publish.
	if err := pub.Add(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(context.Background(), "basic", privelet.Params{Epsilon: 1e9, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestFrequencyValidation covers NewFrequency's shape checks.
func TestFrequencyValidation(t *testing.T) {
	schema := histSchema(t, 8)
	other := histSchema(t, 16)
	pub, err := privelet.NewPublisher(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := privelet.NewFrequency(schema, pub.Frequency().M); err == nil {
		t.Fatal("NewFrequency accepted a mis-shaped matrix")
	}
	if _, err := privelet.NewFrequency(nil, nil); err == nil {
		t.Fatal("NewFrequency accepted nils")
	}
	f, err := privelet.NewFrequency(other, pub.Frequency().M)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != other {
		t.Fatal("NewFrequency rebound the schema")
	}
	if _, err := privelet.PublishWith(context.Background(), "basic", nil, privelet.Params{Epsilon: 1}); err == nil {
		t.Fatal("PublishWith accepted a nil frequency")
	}
}
