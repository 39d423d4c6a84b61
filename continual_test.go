package privelet_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	privelet "repro"
)

// saboteurMech fails every publish after the charge has been taken —
// the mechanism-level analogue of PR 4's saboteur kernel, for proving
// the charge is refunded.
type saboteurMech struct{}

func (saboteurMech) Name() string { return "test-saboteur" }
func (saboteurMech) Publish(context.Context, *privelet.Frequency, privelet.Params) (*privelet.Result, error) {
	return nil, fmt.Errorf("saboteur: induced mechanism failure")
}

// cancelKey smuggles a CancelFunc to selfCancelMech through the publish
// context, so the cancellation fires mid-flight — after the charge,
// inside the mechanism — and is observed by the engine's existing
// chunk-granular ctx plumbing.
type cancelKey struct{}

type selfCancelMech struct{}

func (selfCancelMech) Name() string { return "test-self-cancel" }
func (selfCancelMech) Publish(ctx context.Context, f *privelet.Frequency, p privelet.Params) (*privelet.Result, error) {
	if fn, ok := ctx.Value(cancelKey{}).(context.CancelFunc); ok {
		fn()
	}
	real, err := privelet.MechanismByName("privelet+")
	if err != nil {
		return nil, err
	}
	return real.Publish(ctx, f, p)
}

var registerTestMechs = sync.OnceFunc(func() {
	for _, m := range []privelet.Mechanism{saboteurMech{}, selfCancelMech{}} {
		if err := privelet.RegisterMechanism(m); err != nil {
			panic(err)
		}
	}
})

func continualSchema(t *testing.T) *privelet.Schema {
	t.Helper()
	schema, err := privelet.NewSchema(privelet.OrdinalAttr("Age", 8))
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func fullDomainCount(t *testing.T, rel *privelet.Release) float64 {
	t.Helper()
	q, err := rel.NewQuery().Range("Age", 0, 7).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := rel.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLedgerContinualSlidingWindow feeds a stream through a Window=4
// Continual at a near-noiseless ε and checks that each automatic epoch
// covers exactly the last 4 rows — the sliding-window subtraction — and
// that every epoch debited the ledger once with ascending epoch numbers.
func TestLedgerContinualSlidingWindow(t *testing.T) {
	led, err := privelet.NewLedger("", 0) // unlimited
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e6 // λ = 2/ε ≈ 0: counts are near-exact
	c, err := privelet.NewContinual(continualSchema(t), privelet.ContinualOptions{
		Tenant: "alice",
		Ledger: led,
		Params: privelet.Params{Epsilon: eps, Seed: 7},
		Window: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var epochs []*privelet.Epoch
	for i := 0; i < 10; i++ {
		ep, err := c.Add(context.Background(), i%8)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if ep != nil {
			epochs = append(epochs, ep)
		}
	}
	if len(epochs) != 2 { // rows 4 and 8
		t.Fatalf("auto-republished %d times, want 2", len(epochs))
	}
	for i, ep := range epochs {
		if ep.Tenant != "alice" || ep.Epoch != uint64(i+1) {
			t.Fatalf("epoch[%d] = %s/%d", i, ep.Tenant, ep.Epoch)
		}
		if want := fmt.Sprintf("alice/%d", i+1); ep.ID() != want {
			t.Fatalf("epoch ID = %q, want %q", ep.ID(), want)
		}
		// Near-noiseless: the full-domain count is the window size.
		if got := fullDomainCount(t, ep.Release); math.Abs(got-4) > 1e-3 {
			t.Fatalf("epoch %d window count = %v, want ~4", i+1, got)
		}
	}
	if c.Rows() != 10 || c.WindowRows() != 4 {
		t.Fatalf("Rows = %d, WindowRows = %d", c.Rows(), c.WindowRows())
	}
	if b := led.Balance("alice"); b.Spent != 2*eps {
		t.Fatalf("Spent = %v, want %v", b.Spent, 2*eps)
	}

	// The window really slid: after 10 rows of i%8, the last 4 rows are
	// values 6,7,0,1 — a [2,5] range query over the window must be ~0.
	ep, err := c.Republish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q, err := ep.Release.NewQuery().Range("Age", 2, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	mid, err := ep.Release.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mid) > 1e-3 {
		t.Fatalf("evicted rows still counted: [2,5] = %v, want ~0", mid)
	}
}

// TestLedgerContinualExhaustion runs a finite budget dry: republishes
// succeed while sequential composition has room, the first over-budget
// attempt is refused with the typed error, ingest keeps working, and
// the refusal repeats deterministically.
func TestLedgerContinualExhaustion(t *testing.T) {
	led, err := privelet.NewLedger("", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := privelet.NewContinual(continualSchema(t), privelet.ContinualOptions{
		Tenant: "bob",
		Ledger: led,
		Params: privelet.Params{Epsilon: 0.2, Seed: 3},
		Window: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	published, refused := 0, 0
	for i := 0; i < 12; i++ {
		ep, err := c.Add(context.Background(), i%8)
		switch {
		case errors.Is(err, privelet.ErrBudgetExhausted):
			refused++
		case err != nil:
			t.Fatalf("row %d: %v", i, err)
		case ep != nil:
			published++
		}
	}
	// 12 rows / window 2 = 6 attempts; 0.5/0.2 = 2 fit.
	if published != 2 || refused != 4 {
		t.Fatalf("published %d, refused %d; want 2 and 4", published, refused)
	}
	if got := led.Remaining("bob"); got != 0.1 {
		t.Fatalf("Remaining = %v, want exactly 0.1", got)
	}
	// On-demand republish is refused the same way — refusals never
	// flicker into acceptance.
	if _, err := c.Republish(context.Background()); !errors.Is(err, privelet.ErrBudgetExhausted) {
		t.Fatalf("Republish err = %v, want ErrBudgetExhausted", err)
	}
}

// TestLedgerContinualEpochsDrawFreshNoise: two epochs of one Continual
// draw independent noise. Had they shared a noise stream, their
// difference would be the exact change in the data — 1 in the added
// row's cell, 0 in every other — at any ε, releasing that change with
// no noise at all.
func TestLedgerContinualEpochsDrawFreshNoise(t *testing.T) {
	led, err := privelet.NewLedger("", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := privelet.NewContinual(continualSchema(t), privelet.ContinualOptions{
		Tenant: "frank",
		Ledger: led,
		Params: privelet.Params{Epsilon: 0.1, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for v := 0; v < 8; v++ {
		if _, err := c.Add(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.Republish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const added = 3
	if _, err := c.Add(ctx, added); err != nil {
		t.Fatal(err)
	}
	second, err := c.Republish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := first.Release.Matrix().Data(), second.Release.Matrix().Data()
	for i := range m1 {
		change := 0.0
		if i == added {
			change = 1
		}
		if m2[i]-m1[i] == change {
			t.Fatalf("cell %d: epoch 2 − epoch 1 = %v, exactly the data change: the epochs share a noise stream", i, m2[i]-m1[i])
		}
	}
}

// TestLedgerRepublishRefundOnFailure is the failure-refund regression:
// a republish that fails after its charge (saboteur mechanism) or is
// cancelled mid-flight (ctx observed by the engine's chunk plumbing)
// must leave the budget bit-identical to before — no budget leaks —
// while its epoch number stays taken.
func TestLedgerRepublishRefundOnFailure(t *testing.T) {
	registerTestMechs()
	schema := continualSchema(t)
	led, err := privelet.NewLedger("", 1)
	if err != nil {
		t.Fatal(err)
	}
	// continual is carol's cumulative stream over one row per Age value.
	continual := func(mech string, eps float64) *privelet.Continual {
		t.Helper()
		c, err := privelet.NewContinual(schema, privelet.ContinualOptions{
			Tenant:    "carol",
			Ledger:    led,
			Mechanism: mech,
			Params:    privelet.Params{Epsilon: eps, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := c.Add(context.Background(), i); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	before := led.Balance("carol")
	refunded := func(what string, epoch uint64) {
		t.Helper()
		got := led.Balance("carol")
		if got.Budget != before.Budget || got.Spent != before.Spent || got.Remaining != before.Remaining {
			t.Fatalf("%s leaked budget: %+v, want %+v", what, got, before)
		}
		if got.Epoch != epoch {
			t.Fatalf("%s: epoch counter = %d, want %d (a failed republish keeps its number)", what, got.Epoch, epoch)
		}
	}

	// Saboteur: the mechanism errors after the charge.
	if _, err := continual("test-saboteur", 0.4).Republish(context.Background()); err == nil {
		t.Fatal("saboteur publish succeeded")
	}
	refunded("saboteur", before.Epoch+1)

	// Cancellation: the context dies inside the mechanism, the engine
	// aborts at a chunk boundary, and the charge comes back.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = context.WithValue(ctx, cancelKey{}, cancel)
	if _, err := continual("test-self-cancel", 0.4).Republish(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled publish err = %v, want context.Canceled", err)
	}
	refunded("cancelled publish", before.Epoch+2)

	// The refunded budget is genuinely spendable: a real publish of the
	// full remaining budget still fits, under the next epoch number.
	ep, err := continual("privelet+", 1).Republish(context.Background())
	if err != nil {
		t.Fatalf("full-budget publish after refunds: %v", err)
	}
	if ep.Epoch != before.Epoch+3 {
		t.Fatalf("full-budget publish epoch = %d, want %d", ep.Epoch, before.Epoch+3)
	}
	if got := led.Remaining("carol"); got != 0 {
		t.Fatalf("Remaining = %v, want 0", got)
	}
}

// TestLedgerRepublishValidatesBeforeCharge: a Continual the mechanism
// would reject anyway is refused by NewContinual, before it can touch
// the ledger — neither as a charge nor as a refusal.
func TestLedgerRepublishValidatesBeforeCharge(t *testing.T) {
	led, err := privelet.NewLedger("", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mech   string
		params privelet.Params
	}{
		{"no-such-mech", privelet.Params{Epsilon: 0.5}},
		{"privelet", privelet.Params{Epsilon: 0.5, SA: []string{"Age"}}},
	} {
		if _, err := privelet.NewContinual(continualSchema(t), privelet.ContinualOptions{
			Tenant:    "dave",
			Ledger:    led,
			Mechanism: tc.mech,
			Params:    tc.params,
		}); err == nil {
			t.Fatalf("mechanism %q with %+v accepted", tc.mech, tc.params)
		}
	}
	if st := led.Stats(); st.Tenants != 0 || st.Charges != 0 || st.Refusals != 0 || st.Refunds != 0 {
		t.Fatalf("invalid continuals touched the ledger: %+v", st)
	}
}
