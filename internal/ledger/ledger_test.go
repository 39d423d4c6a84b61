package ledger

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustLedger(t *testing.T, cfg Config) *Ledger {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLedgerChargeRefundExact(t *testing.T) {
	l := mustLedger(t, Config{DefaultBudget: 1.0})
	c1, err := l.Charge("alice", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Remaining("alice"); got != 0.7 {
		t.Fatalf("Remaining = %v, want exactly 0.7", got)
	}
	c2, err := l.Charge("alice", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// 0.3+0.3+0.3 = 0.9 fits; a fourth 0.3 must not.
	if _, err := l.Charge("alice", 0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("alice", 0.3); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("4th charge err = %v, want ErrBudgetExhausted", err)
	}
	// The remaining 0.1 is still exactly chargeable — no float drift.
	if got := l.Remaining("alice"); got != 0.1 {
		t.Fatalf("Remaining = %v, want exactly 0.1", got)
	}
	if _, err := l.Charge("alice", 0.1); err != nil {
		t.Fatalf("exact-fit charge refused: %v", err)
	}
	if got := l.Remaining("alice"); got != 0 {
		t.Fatalf("Remaining = %v, want 0", got)
	}

	// Refunds restore bit-identically, and are idempotent.
	if err := l.Refund(c1); err != nil {
		t.Fatal(err)
	}
	if err := l.Refund(c1); err != nil {
		t.Fatal(err) // second refund is a no-op
	}
	if got := l.Remaining("alice"); got != 0.3 {
		t.Fatalf("Remaining after refund = %v, want exactly 0.3", got)
	}
	if st := l.Stats(); st.Refunds != 1 {
		t.Fatalf("Refunds = %d, want 1 (idempotent)", st.Refunds)
	}
	_ = c2
}

// TestLedgerRefusalDeterministic pins the no-flicker contract: a
// refused charge mutates nothing, so the same over-budget charge is
// refused every time while smaller charges that fit keep succeeding,
// regardless of how many refusals happened in between.
func TestLedgerRefusalDeterministic(t *testing.T) {
	l := mustLedger(t, Config{DefaultBudget: 0.5})
	if _, err := l.Charge("bob", 0.4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Charge("bob", 0.2); !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("attempt %d: err = %v, want ErrBudgetExhausted", i, err)
		}
		if got := l.Remaining("bob"); got != 0.1 {
			t.Fatalf("attempt %d: refusal changed balance: %v", i, got)
		}
	}
	// The lowest charge that fits still fits after every refusal.
	if _, err := l.Charge("bob", 0.1); err != nil {
		t.Fatalf("fitting charge refused after refusals: %v", err)
	}
}

func TestLedgerBadInputs(t *testing.T) {
	l := mustLedger(t, Config{DefaultBudget: 1})
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), 2e9} {
		if _, err := l.Charge("alice", eps); err == nil {
			t.Errorf("Charge(%v) accepted", eps)
		}
	}
	for _, name := range []string{"", ".hidden", "a/b", "sp ace", strings.Repeat("x", 65)} {
		if _, err := l.Charge(name, 0.1); err == nil {
			t.Errorf("tenant %q accepted", name)
		}
	}
	if err := l.Refund(nil); err == nil {
		t.Error("Refund(nil) accepted")
	}
	other := mustLedger(t, Config{})
	c, err := other.Charge("alice", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Refund(c); err == nil {
		t.Error("Refund of a foreign ledger's charge accepted")
	}
}

func TestLedgerUnlimitedAndGrant(t *testing.T) {
	l := mustLedger(t, Config{}) // no default budget = unlimited
	for i := 0; i < 100; i++ {
		if _, err := l.Charge("free", 10); err != nil {
			t.Fatal(err)
		}
	}
	b := l.Balance("free")
	if b.Finite || !math.IsInf(b.Remaining, 1) || b.Spent != 1000 {
		t.Fatalf("Balance = %+v", b)
	}
	// Granting a finite budget below the recorded spend refuses
	// everything without forgiving history.
	if err := l.Grant("free", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("free", 0.001); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("charge after shrink err = %v, want ErrBudgetExhausted", err)
	}
	if got := l.Balance("free").Spent; got != 1000 {
		t.Fatalf("Spent after shrink = %v, want 1000", got)
	}
}

func TestLedgerNextEpochMonotonic(t *testing.T) {
	l := mustLedger(t, Config{DefaultBudget: 1})
	for want := uint64(1); want <= 5; want++ {
		got, err := l.NextEpoch("alice")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("NextEpoch = %d, want %d", got, want)
		}
	}
	if b := l.Balance("alice"); b.Epoch != 5 {
		t.Fatalf("Balance.Epoch = %d, want 5", b.Epoch)
	}
}

func TestLedgerStateRoundTrip(t *testing.T) {
	for _, st := range []State{
		{Budget: -1, Spent: 0, Epoch: 0},
		{Budget: 1_000_000, Spent: 123_456, Epoch: 42},
	} {
		var buf bytes.Buffer
		if err := EncodeState(&buf, st); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeState(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != st {
			t.Fatalf("round trip = %+v, want %+v", got, st)
		}
	}
	for _, raw := range []string{
		"",
		"privelet-ledger v2\nbudget=1\nspent=0\nepoch=0\n",
		"privelet-ledger v1\nbudget=1\nspent=0\n",
		"privelet-ledger v1\nbudget=1\nspent=0\nepoch=0\nextra=1\n",
		"privelet-ledger v1\nbudget=x\nspent=0\nepoch=0\n",
	} {
		if _, err := DecodeState(strings.NewReader(raw)); err == nil {
			t.Errorf("DecodeState accepted %q", raw)
		}
	}
}

// TestLedgerRestartRecovery is the durability contract: balances,
// budgets and epoch counters recover bit-identically from the state
// directory, and a refusal decided before the restart is still decided
// the same way after it.
func TestLedgerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	l1 := mustLedger(t, Config{Dir: dir, DefaultBudget: 1})
	if _, err := l1.Charge("alice", 0.7); err != nil {
		t.Fatal(err)
	}
	c, err := l1.Charge("alice", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l1.Refund(c); err != nil {
		t.Fatal(err)
	}
	if _, err := l1.NextEpoch("alice"); err != nil {
		t.Fatal(err)
	}
	if err := l1.Grant("bob", 5); err != nil {
		t.Fatal(err)
	}
	before := l1.Balance("alice")

	l2 := mustLedger(t, Config{Dir: dir, DefaultBudget: 1})
	after := l2.Balance("alice")
	if after != before {
		t.Fatalf("recovered balance = %+v, want %+v", after, before)
	}
	if got := l2.Balance("bob").Budget; got != 5 {
		t.Fatalf("recovered bob budget = %v, want 5", got)
	}
	if got := l2.Tenants(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("Tenants = %v", got)
	}
	// The over-budget refusal survives the restart.
	if _, err := l2.Charge("alice", 0.5); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-restart charge err = %v, want ErrBudgetExhausted", err)
	}
	if ep, err := l2.NextEpoch("alice"); err != nil || ep != 2 {
		t.Fatalf("post-restart NextEpoch = %d, %v, want 2", ep, err)
	}
}

func TestLedgerCorruptStateFailsNew(t *testing.T) {
	dir := t.TempDir()
	l := mustLedger(t, Config{Dir: dir, DefaultBudget: 1})
	if _, err := l.Charge("alice", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "alice.ledger"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir, DefaultBudget: 1}); err == nil {
		t.Fatal("New accepted a corrupt budget file")
	}
}

func TestLedgerTempFileSweep(t *testing.T) {
	dir := t.TempDir()
	l := mustLedger(t, Config{Dir: dir, DefaultBudget: 1})
	if _, err := l.Charge("alice", 0.5); err != nil {
		t.Fatal(err)
	}
	// Both forms: the staged <name>.<random>.tmp and the fixed
	// <name>.tmp earlier versions wrote.
	strandedFiles := []string{filepath.Join(dir, "alice.ledger.tmp"), filepath.Join(dir, "alice.ledger.5g6h7j.tmp")}
	for _, stranded := range strandedFiles {
		if err := os.WriteFile(stranded, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2 := mustLedger(t, Config{Dir: dir, DefaultBudget: 1})
	if got := l2.Remaining("alice"); got != 0.5 {
		t.Fatalf("Remaining = %v, want 0.5 (committed state, not the temp)", got)
	}
	for _, stranded := range strandedFiles {
		if _, err := os.Stat(stranded); !os.IsNotExist(err) {
			t.Fatalf("stranded temp file %s not swept", stranded)
		}
	}
}

func TestValidateTenant(t *testing.T) {
	for _, ok := range []string{"alice", "a-b_c.d", "X9"} {
		if err := ValidateTenant(ok); err != nil {
			t.Errorf("ValidateTenant(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".a", "a/b", "a b", "ü", strings.Repeat("x", 65)} {
		if err := ValidateTenant(bad); err == nil {
			t.Errorf("ValidateTenant(%q) accepted", bad)
		}
	}
}
