package ledger

import (
	"errors"
	"testing"
)

var errInduced = errors.New("induced failure")

// spendLedger is a durable ledger with a budget of 1 and the reopen
// check every Spend test ends its steps with: a New on the same
// directory must recover the tenant's balance exactly.
func spendLedger(t *testing.T) (*Ledger, func(tenant string)) {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), DefaultBudget: 1}
	l := mustLedger(t, cfg)
	return l, func(tenant string) {
		t.Helper()
		if got, want := mustLedger(t, cfg).Balance(tenant), l.Balance(tenant); got != want {
			t.Fatalf("reopened balance %+v, want %+v", got, want)
		}
	}
}

// TestLedgerSpendReturnsKeptEpoch: a successful Spend charges once,
// runs publish before keep, and returns the epoch keep saw.
func TestLedgerSpendReturnsKeptEpoch(t *testing.T) {
	l, reopened := spendLedger(t)
	for want := uint64(1); want <= 2; want++ {
		var order []string
		var kept uint64
		epoch, err := l.Spend("ann", 0.4, func() error {
			order = append(order, "publish")
			return nil
		}, func(epoch uint64) error {
			order = append(order, "keep")
			kept = epoch
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if epoch != want || kept != want || len(order) != 2 || order[0] != "publish" {
			t.Fatalf("Spend = %d, keep saw %d, order %v; want epoch %d, publish then keep", epoch, kept, order, want)
		}
		reopened("ann")
	}
	if b := l.Balance("ann"); b.Remaining != 0.2 || b.Epoch != 2 {
		t.Fatalf("balance %+v, want 0.2 remaining at epoch 2", b)
	}
	// Both callbacks may be nil: the Spend is then a charge and an epoch.
	if epoch, err := l.Spend("ann", 0.2, nil, nil); err != nil || epoch != 3 {
		t.Fatalf("Spend(nil, nil) = %d, %v; want 3", epoch, err)
	}
	reopened("ann")
}

// TestLedgerSpendRefusedRunsNothing: an exhausted tenant's Spend runs
// neither callback and changes nothing but the refusal counter.
func TestLedgerSpendRefusedRunsNothing(t *testing.T) {
	l, reopened := spendLedger(t)
	if _, err := l.Spend("bob", 0.7, nil, nil); err != nil {
		t.Fatal(err)
	}
	before, stats := l.Balance("bob"), l.Stats()
	ran := false
	if _, err := l.Spend("bob", 0.4, func() error {
		ran = true
		return nil
	}, func(uint64) error {
		ran = true
		return nil
	}); !errors.Is(err, ErrBudgetExhausted) || ran {
		t.Fatalf("err = %v, callbacks ran: %v; want ErrBudgetExhausted and neither run", err, ran)
	}
	if got := l.Balance("bob"); got != before {
		t.Fatalf("refused Spend changed the balance: %+v, want %+v", got, before)
	}
	stats.Refusals++
	if got := l.Stats(); got != stats {
		t.Fatalf("Stats = %+v, want %+v", got, stats)
	}
	reopened("bob")
}

// TestLedgerSpendPublishErrorRefunds: a failed publish comes back as
// Spend's error with its charge refunded, keep never runs, and the
// epoch counter is left as it was.
func TestLedgerSpendPublishErrorRefunds(t *testing.T) {
	l, reopened := spendLedger(t)
	if _, err := l.Spend("cid", 0.3, nil, nil); err != nil {
		t.Fatal(err)
	}
	before := l.Balance("cid")
	kept := false
	if _, err := l.Spend("cid", 0.4, func() error { return errInduced }, func(uint64) error {
		kept = true
		return nil
	}); !errors.Is(err, errInduced) || kept {
		t.Fatalf("err = %v, keep ran: %v; want the publish error and no keep", err, kept)
	}
	if got := l.Balance("cid"); got != before {
		t.Fatalf("failed publish: balance %+v, want %+v", got, before)
	}
	if st := l.Stats(); st.Charges != 2 || st.Refunds != 1 {
		t.Fatalf("Stats = %+v, want 2 charges and 1 refund", st)
	}
	reopened("cid")
}

// TestLedgerSpendKeepErrorKeepsEpoch: a failed keep refunds the charge
// but its epoch number stays taken, so the next Spend gets the number
// after it.
func TestLedgerSpendKeepErrorKeepsEpoch(t *testing.T) {
	l, reopened := spendLedger(t)
	before := l.Balance("dee")
	var failed uint64
	if _, err := l.Spend("dee", 0.4, nil, func(epoch uint64) error {
		failed = epoch
		return errInduced
	}); !errors.Is(err, errInduced) {
		t.Fatalf("err = %v, want the keep error", err)
	}
	got := l.Balance("dee")
	if failed != 1 || got.Epoch != 1 || got.Spent != before.Spent || got.Remaining != before.Remaining {
		t.Fatalf("failed keep at epoch %d: balance %+v, want %+v at epoch 1", failed, got, before)
	}
	reopened("dee")
	if epoch, err := l.Spend("dee", 0.4, nil, nil); err != nil || epoch != 2 {
		t.Fatalf("Spend after a failed keep = %d, %v; want epoch 2", epoch, err)
	}
	reopened("dee")
}
