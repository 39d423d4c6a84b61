// Package ledger tracks per-tenant ε-differential-privacy budgets
// across repeated publishes. The paper (§III) spends the whole budget
// in one shot: a release is computed once, ε is consumed, and the noisy
// matrix answers queries forever after. A continually-publishing
// deployment — a tenant feeding rows and republishing on a window —
// leaves that model the moment a second release appears: by the
// sequential composition theorem the releases' budgets add, so an
// ε₁-release followed by an ε₂-release of (evolving) data about the
// same individuals is (ε₁+ε₂)-differentially private, and a tenant
// with total budget B must be refused once Σεᵢ would exceed B. The
// ledger is that bookkeeping: Charge debits a publish's ε before any
// noise is drawn, Refund returns it when the publish fails or is
// cancelled (nothing was released, so nothing was spent), NextEpoch
// numbers the tenant's releases, and Remaining is what sequential
// composition still allows. Spend puts those steps in order around a
// publish; every charge-gated publish goes through it.
//
// Accounting is exact. Budgets and charges are quantized to Unit
// (10⁻⁶ ε, rounded to nearest) and summed in int64 units, so Remaining
// never depends on float summation order: any interleaving of
// concurrent charges and refunds leaves the same balance, the total
// ever debited can never exceed the budget, and exhaustion is
// deterministic — whether a charge fits depends only on the current
// balance, never on how many over-budget attempts were refused before
// it (a refused Charge mutates nothing).
//
// With a directory configured the ledger is durable: every successful
// Charge, Refund, Grant and NextEpoch writes the tenant's state file
// before returning through atomicfile, the same tmp+rename writer as
// the release store's spill files, and New recovers every tenant from the
// directory — so a budget refusal survives a daemon restart. Failure
// ordering is conservative in the privacy direction: the debit is
// durable before the publish runs, so a crash in between can strand
// budget as spent, but no sequence of crashes can ever let a tenant
// exceed its budget.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/atomicfile"
)

// Unit is the ledger's ε resolution: budgets and charges are rounded to
// the nearest whole multiple of Unit and accounted in exact integer
// multiples of it, which is what makes balances independent of
// charge/refund interleaving.
const Unit = 1e-6

// maxEpsilon bounds a single budget or charge so that the unit
// arithmetic can never overflow int64 (10⁹ ε is far beyond any
// meaningful privacy budget).
const maxEpsilon = 1e9

// fileExt is the per-tenant state file extension under Config.Dir.
const fileExt = ".ledger"

// ErrBudgetExhausted is returned (wrapped) by Charge when the debit
// would push a tenant's spend past its budget — the sequential-
// composition refusal. Callers should test with errors.Is; the serving
// layer maps it to HTTP 429.
var ErrBudgetExhausted = errors.New("ledger: privacy budget exhausted")

// Config configures a Ledger.
type Config struct {
	// Dir, when non-empty, is the durability directory: every tenant's
	// balance is written through to <Dir>/<tenant>.ledger and recovered
	// by New. Empty means a memory-only ledger (budgets die with the
	// process).
	Dir string
	// DefaultBudget is the ε budget a tenant starts with on first
	// contact; Grant overrides it per tenant. ≤ 0 means unlimited —
	// spend is tracked but never refused.
	DefaultBudget float64
}

// Stats is a snapshot of the ledger's traffic counters, surfaced by the
// daemon's /stats endpoint. Charges counts successful debits, Refunds
// successful returns, Refusals charges rejected with ErrBudgetExhausted.
type Stats struct {
	Tenants  int   `json:"tenants"`
	Charges  int64 `json:"charges"`
	Refunds  int64 `json:"refunds"`
	Refusals int64 `json:"refusals"`
}

// Balance is one tenant's budget position. With an unlimited budget,
// Budget and Remaining are +Inf and Finite is false.
type Balance struct {
	Tenant    string  `json:"tenant"`
	Budget    float64 `json:"budget"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
	Finite    bool    `json:"finite"`
	// Epoch is the last epoch number handed out by NextEpoch (0 before
	// the first).
	Epoch uint64 `json:"epoch"`
}

// Ledger is a per-tenant privacy-budget accountant. The zero value is
// not usable; construct with New. All methods are safe for concurrent
// use; charges and refunds against one tenant serialize on that
// tenant's lock, tenants never contend with each other.
type Ledger struct {
	cfg     Config
	budget  int64 // default budget in units; -1 = unlimited
	mu      sync.RWMutex
	tenants map[string]*tenant

	charges  atomic.Int64
	refunds  atomic.Int64
	refusals atomic.Int64
}

// tenant is one tenant's state. budget/spent/epoch are guarded by mu;
// the state file write happens under mu too, so the file always holds a
// committed balance.
type tenant struct {
	mu     sync.Mutex
	name   string
	budget int64 // units; -1 = unlimited
	spent  int64 // units
	epoch  uint64
}

// Charge is the token a successful Charge returns; hand it back to
// Refund if the publish it paid for fails. The token records the exact
// units debited, so a refund restores the balance bit-identically.
type Charge struct {
	ledger   *Ledger
	tenant   *tenant
	units    int64
	refunded atomic.Bool
}

// New builds a ledger. With cfg.Dir set it creates the directory if
// needed and recovers every tenant state file in it; a corrupt state
// file fails New outright — unlike a release spill file, a budget that
// cannot be read cannot be skipped, because serving without it could
// overspend a tenant's ε.
func New(cfg Config) (*Ledger, error) {
	b := int64(-1) // ≤ 0 = unlimited
	if cfg.DefaultBudget > 0 {
		var err error
		if b, err = toUnits(cfg.DefaultBudget); err != nil {
			return nil, fmt.Errorf("ledger: default budget: %w", err)
		}
	}
	l := &Ledger{cfg: cfg, budget: b, tenants: make(map[string]*tenant)}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("ledger: creating %s: %w", cfg.Dir, err)
		}
		if err := l.recover(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// recover loads every tenant state file in cfg.Dir. It runs before the
// ledger serves, so no locking is needed.
func (l *Ledger) recover() error {
	dirents, err := os.ReadDir(l.cfg.Dir)
	if err != nil {
		return fmt.Errorf("ledger: scanning %s: %w", l.cfg.Dir, err)
	}
	for _, d := range dirents {
		name := d.Name()
		if d.IsDir() {
			continue
		}
		// A crash mid-write strands a temp file, in either the staged
		// <name>.<random>.tmp form or the fixed <name>.tmp one earlier
		// versions wrote; the rename never happened, so the .ledger file
		// still holds the last committed state and the temp is garbage.
		if atomicfile.IsTemp(name, fileExt) {
			os.Remove(filepath.Join(l.cfg.Dir, name))
			continue
		}
		if !strings.HasSuffix(name, fileExt) {
			continue
		}
		tn := strings.TrimSuffix(name, fileExt)
		if ValidateTenant(tn) != nil {
			continue // not one of ours
		}
		st, err := l.readState(tn)
		if err != nil {
			return fmt.Errorf("ledger: recovering tenant %q: %w", tn, err)
		}
		l.tenants[tn] = &tenant{name: tn, budget: st.Budget, spent: st.Spent, epoch: st.Epoch}
	}
	return nil
}

// tenant returns the tenant's state, creating it with the default
// budget (and persisting the creation) on first contact.
func (l *Ledger) tenant(name string) (*tenant, error) {
	l.mu.RLock()
	t := l.tenants[name]
	l.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	if err := ValidateTenant(name); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if t = l.tenants[name]; t != nil {
		return t, nil
	}
	t = &tenant{name: name, budget: l.budget}
	// Persist the newborn tenant before registering it, so a tenant the
	// caller has observed always has a state file to recover from.
	t.mu.Lock()
	err := l.persist(t)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	l.tenants[name] = t
	return t, nil
}

// Charge debits eps from the tenant's budget under sequential
// composition, creating the tenant with the default budget on first
// contact. It returns ErrBudgetExhausted (wrapped, with the shortfall
// spelled out) when the debit does not fit; a refused charge mutates
// nothing, so refusal is deterministic and repeatable. On success the
// debit is durable before Charge returns.
func (l *Ledger) Charge(tenantName string, eps float64) (*Charge, error) {
	units, err := toUnits(eps)
	if err != nil {
		return nil, fmt.Errorf("ledger: tenant %q: charge: %w", tenantName, err)
	}
	t, err := l.tenant(tenantName)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.budget >= 0 && t.spent+units > t.budget {
		l.refusals.Add(1)
		return nil, fmt.Errorf("ledger: tenant %q: charge ε=%g exceeds remaining budget ε=%g (budget %g, spent %g): %w",
			tenantName, toEps(units), toEps(t.budget-t.spent),
			toEps(t.budget), toEps(t.spent), ErrBudgetExhausted)
	}
	t.spent += units
	if err := l.persist(t); err != nil {
		t.spent -= units // the debit never became durable; undo it
		return nil, err
	}
	l.charges.Add(1)
	return &Charge{ledger: l, tenant: t, units: units}, nil
}

// Refund returns a charge to its tenant's budget — the failure path for
// a publish that was cancelled or errored after its Charge succeeded
// (no release happened, so under sequential composition nothing was
// spent). Refund is idempotent: refunding the same token twice is a
// no-op, so a caller may refund on every error path without
// double-crediting. A persistence failure leaves the in-memory balance
// refunded (the durable copy then over-counts spend until the next
// successful write — conservative, never overspending).
func (l *Ledger) Refund(c *Charge) error {
	if c == nil || c.ledger != l {
		return fmt.Errorf("ledger: refund of a foreign or nil charge")
	}
	if !c.refunded.CompareAndSwap(false, true) {
		return nil
	}
	t := c.tenant
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spent -= c.units
	l.refunds.Add(1)
	return l.persist(t)
}

// NextEpoch hands out the tenant's next release epoch number (1, 2, …),
// creating the tenant on first contact. The counter is persisted with
// the balance, so epochs keep ascending across restarts and a withdrawn
// epoch's number is never reissued.
func (l *Ledger) NextEpoch(tenantName string) (uint64, error) {
	t, err := l.tenant(tenantName)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch++
	if err := l.persist(t); err != nil {
		t.epoch--
		return 0, err
	}
	return t.epoch, nil
}

// Spend is a charge-gated publish: it charges eps to the tenant, runs
// publish (the work that does not need an epoch number), takes the
// tenant's next epoch, runs keep(epoch) (the work that does), and
// returns that epoch. Either callback may be nil. A refused charge runs
// neither callback and changes nothing. If a later step fails, the
// charge is refunded and the error returned, joined with the refund's.
// A failed publish leaves the epoch counter as it was; a failed keep
// leaves its number taken, so a number whose noise may have been drawn
// is never handed out again.
func (l *Ledger) Spend(tenantName string, eps float64, publish func() error, keep func(epoch uint64) error) (uint64, error) {
	c, err := l.Charge(tenantName, eps)
	if err != nil {
		return 0, err
	}
	var epoch uint64
	if publish != nil {
		err = publish()
	}
	if err == nil {
		epoch, err = l.NextEpoch(tenantName)
	}
	if err == nil && keep != nil {
		err = keep(epoch)
	}
	if err != nil {
		return 0, errors.Join(err, l.Refund(c))
	}
	return epoch, nil
}

// Grant sets the tenant's total budget (replacing the default or a
// previous grant), creating the tenant if needed. budget ≤ 0 means
// unlimited. Spend already recorded is kept: shrinking a budget below
// the tenant's spend refuses all further charges without forgiving the
// past ones.
func (l *Ledger) Grant(tenantName string, budget float64) error {
	units := int64(-1)
	if budget > 0 {
		var err error
		if units, err = toUnits(budget); err != nil {
			return fmt.Errorf("ledger: tenant %q: grant: %w", tenantName, err)
		}
	}
	t, err := l.tenant(tenantName)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.budget
	t.budget = units
	if err := l.persist(t); err != nil {
		t.budget = old
		return err
	}
	return nil
}

// Balance returns the tenant's budget position. An unknown tenant
// reports the position it would start with (default budget, nothing
// spent) without creating it.
func (l *Ledger) Balance(tenantName string) Balance {
	l.mu.RLock()
	t := l.tenants[tenantName]
	l.mu.RUnlock()
	budget, spent := l.budget, int64(0)
	var epoch uint64
	if t != nil {
		t.mu.Lock()
		budget, spent, epoch = t.budget, t.spent, t.epoch
		t.mu.Unlock()
	}
	b := Balance{Tenant: tenantName, Spent: toEps(spent), Epoch: epoch}
	if budget < 0 {
		b.Budget, b.Remaining = math.Inf(1), math.Inf(1)
	} else {
		b.Finite = true
		b.Budget = toEps(budget)
		b.Remaining = toEps(budget - spent)
	}
	return b
}

// Remaining returns the tenant's unspent ε (+Inf for an unlimited
// budget; the full default budget for a tenant not yet seen).
func (l *Ledger) Remaining(tenantName string) float64 { return l.Balance(tenantName).Remaining }

// Tenants returns the known tenant names, sorted.
func (l *Ledger) Tenants() []string {
	l.mu.RLock()
	out := make([]string, 0, len(l.tenants))
	for name := range l.tenants {
		out = append(out, name)
	}
	l.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the ledger's counters.
func (l *Ledger) Stats() Stats {
	l.mu.RLock()
	n := len(l.tenants)
	l.mu.RUnlock()
	return Stats{
		Tenants:  n,
		Charges:  l.charges.Load(),
		Refunds:  l.refunds.Load(),
		Refusals: l.refusals.Load(),
	}
}

// toUnits quantizes eps to ledger units, rounding to nearest so that
// decimal budgets like 0.1 land on exact unit counts. The scale factor
// 1e6 is exactly representable, so eps*1e6 is one correctly-rounded
// operation before the Round.
func toUnits(eps float64) (int64, error) {
	if math.IsNaN(eps) || eps <= 0 || eps > maxEpsilon {
		return 0, fmt.Errorf("epsilon %v outside (0, %g]", eps, float64(maxEpsilon))
	}
	u := int64(math.Round(eps * 1e6))
	if u == 0 {
		u = 1 // a positive ε below resolution still costs one unit
	}
	return u, nil
}

// toEps converts exact units back to ε. Division by the exactly-
// representable 1e6 is correctly rounded, so round decimal balances
// (100000 units) convert to the float64 a decimal literal (0.1) parses
// to — which is what lets tests and clients compare balances with ==.
func toEps(units int64) float64 { return float64(units) / 1e6 }

// ValidateTenant checks that a tenant name is usable: non-empty,
// ≤ 64 bytes, alphanumerics plus '.', '_', '-', not starting with '.'.
// The grammar matches one segment of a store release ID, so a valid
// tenant name always yields valid "<tenant>/<epoch>" release IDs and a
// safe "<tenant>.ledger" state filename.
func ValidateTenant(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("ledger: invalid tenant name %q", name)
	}
	if name[0] == '.' {
		return fmt.Errorf("ledger: invalid tenant name %q", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("ledger: invalid tenant name %q", name)
		}
	}
	return nil
}
