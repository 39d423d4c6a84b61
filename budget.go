package privelet

import "repro/internal/ledger"

// Ledger tracks per-tenant ε budgets across repeated publishes,
// enforcing sequential composition: every successful publish debits its
// ε, refunds return a failed publish's debit, and a charge that would
// push a tenant past its budget is refused with ErrBudgetExhausted.
// Accounting is exact (integer multiples of 10⁻⁶ ε), so balances never
// depend on charge ordering. Ledger.Spend is the charge-gated publish
// that Continual runs every republish through. See internal/ledger for
// the full contract, including the durable mode's crash-ordering
// guarantees.
type Ledger = ledger.Ledger

// BudgetBalance is one tenant's budget position as reported by
// Ledger.Balance.
type BudgetBalance = ledger.Balance

// ErrBudgetExhausted is the typed refusal a Ledger returns (wrapped)
// when a charge would exceed a tenant's budget. Test with errors.Is.
var ErrBudgetExhausted = ledger.ErrBudgetExhausted

// NewLedger builds a privacy-budget ledger. Every tenant starts with
// defaultBudget ε (≤ 0 = unlimited: spend is tracked, never refused);
// Ledger.Grant overrides per tenant. A non-empty dir makes the ledger
// durable: balances are written through on every charge/refund (atomic
// tmp+rename, like the release store's spill files) and recovered here,
// so a budget refusal survives a process restart.
func NewLedger(dir string, defaultBudget float64) (*Ledger, error) {
	return ledger.New(ledger.Config{Dir: dir, DefaultBudget: defaultBudget})
}
