package ledger

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestLedgerConcurrentChargeNeverOverspends is the core safety
// property, run under -race by CI: however goroutines interleave their
// charges, the number that succeed is exactly the number that fit the
// budget — never one more — and the final balance equals the successes'
// exact sum.
func TestLedgerConcurrentChargeNeverOverspends(t *testing.T) {
	const (
		budget     = 1.0
		eps        = 0.03 // 33 charges fit, the 34th does not
		goroutines = 8
		perG       = 10
	)
	l := mustLedger(t, Config{DefaultBudget: budget})
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		succeeded int
		refused   int
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := l.Charge("t", eps)
				mu.Lock()
				switch {
				case err == nil:
					succeeded++
				case errors.Is(err, ErrBudgetExhausted):
					refused++
				default:
					mu.Unlock()
					t.Errorf("unexpected charge error: %v", err)
					return
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if succeeded != 33 || refused != goroutines*perG-33 {
		t.Fatalf("succeeded = %d, refused = %d; want exactly 33 successes", succeeded, refused)
	}
	if got := l.Remaining("t"); got != 0.01 {
		t.Fatalf("Remaining = %v, want exactly 0.01", got)
	}
	st := l.Stats()
	if st.Charges != 33 || st.Refusals != int64(refused) {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestLedgerConcurrentChargeRefundExact interleaves random charges and
// refunds across goroutines (and tenants) and checks the invariants the
// integer-unit accounting promises: the balance is exactly
// Σcharged − Σrefunded at every quiescent point, total outstanding debit
// never exceeds the budget, and double refunds never credit twice.
func TestLedgerConcurrentChargeRefundExact(t *testing.T) {
	const (
		budget     = 10.0
		goroutines = 8
		ops        = 200
	)
	l := mustLedger(t, Config{Dir: t.TempDir(), DefaultBudget: budget})
	tenants := []string{"a", "b", "c"}
	kept := make([]int64, len(tenants)) // net units outstanding, by tenant
	var keptMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				tn := rng.Intn(len(tenants))
				eps := float64(rng.Intn(50)+1) * 0.01
				c, err := l.Charge(tenants[tn], eps)
				if errors.Is(err, ErrBudgetExhausted) {
					continue
				}
				if err != nil {
					t.Errorf("charge: %v", err)
					return
				}
				if rng.Intn(2) == 0 {
					if err := l.Refund(c); err != nil {
						t.Errorf("refund: %v", err)
						return
					}
					if rng.Intn(4) == 0 {
						_ = l.Refund(c) // double refund must be a no-op
					}
				} else {
					keptMu.Lock()
					kept[tn] += c.units
					keptMu.Unlock()
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	for i, tn := range tenants {
		b := l.Balance(tn)
		want := toEps(kept[i])
		if b.Spent != want {
			t.Fatalf("tenant %s: Spent = %v, want exactly %v", tn, b.Spent, want)
		}
		if b.Spent > budget {
			t.Fatalf("tenant %s: overspent: %v > %v", tn, b.Spent, budget)
		}
	}
	st := l.Stats()
	if st.Refunds > st.Charges {
		t.Fatalf("more refunds than charges: %+v", st)
	}

	// The durable copy agrees with memory exactly after recovery.
	l2 := mustLedger(t, Config{Dir: l.cfg.Dir, DefaultBudget: budget})
	for _, tn := range tenants {
		if got, want := l2.Balance(tn), l.Balance(tn); got != want {
			t.Fatalf("tenant %s: recovered %+v, want %+v", tn, got, want)
		}
	}
}

// TestLedgerConcurrentNextEpochUnique checks epoch numbers are handed
// out without gaps or duplicates under contention.
func TestLedgerConcurrentNextEpochUnique(t *testing.T) {
	const goroutines, perG = 8, 25
	l := mustLedger(t, Config{DefaultBudget: 1})
	seen := make(chan uint64, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ep, err := l.NextEpoch("t")
				if err != nil {
					t.Errorf("NextEpoch: %v", err)
					return
				}
				seen <- ep
			}
		}()
	}
	wg.Wait()
	close(seen)
	got := make(map[uint64]bool)
	for ep := range seen {
		if got[ep] {
			t.Fatalf("epoch %d issued twice", ep)
		}
		got[ep] = true
	}
	for ep := uint64(1); ep <= goroutines*perG; ep++ {
		if !got[ep] {
			t.Fatalf("epoch %d never issued", ep)
		}
	}
}

// TestLedgerSpendStampede: concurrent Spends on one tenant admit
// exactly ⌊budget/ε⌋ publishes, each returning the epoch its keep saw,
// and the admitted publishes hold the distinct epochs 1…n.
func TestLedgerSpendStampede(t *testing.T) {
	const (
		budget     = 1.0
		eps        = 0.03 // 33 Spends fit, the 34th does not
		goroutines = 8
		perG       = 10
	)
	l := mustLedger(t, Config{DefaultBudget: budget})
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		epochs  = make(map[uint64]bool)
		refused int
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var kept uint64
				epoch, err := l.Spend("t", eps, func() error { return nil }, func(epoch uint64) error {
					kept = epoch
					return nil
				})
				mu.Lock()
				switch {
				case err == nil && epoch == kept && !epochs[epoch]:
					epochs[epoch] = true
				case errors.Is(err, ErrBudgetExhausted):
					refused++
				default:
					t.Errorf("Spend = %d (keep saw %d), %v", epoch, kept, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(epochs) != 33 || refused != goroutines*perG-33 {
		t.Fatalf("admitted %d, refused %d; want exactly 33 admitted", len(epochs), refused)
	}
	for epoch := uint64(1); epoch <= 33; epoch++ {
		if !epochs[epoch] {
			t.Fatalf("epoch %d never handed out", epoch)
		}
	}
	if got := l.Remaining("t"); got != 0.01 {
		t.Fatalf("Remaining = %v, want exactly 0.01", got)
	}
}
