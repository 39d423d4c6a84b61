package privelet

import (
	"context"
	"fmt"

	"repro/internal/ledger"
	"repro/internal/rng"
)

// ContinualOptions configures a Continual publisher.
type ContinualOptions struct {
	// Tenant is the budget account every republish debits. It must be a
	// valid tenant name (see internal/ledger.ValidateTenant); combined
	// with an epoch number it forms the "<tenant>/<epoch>" release ID
	// the serving layer stores continual releases under.
	Tenant string
	// Ledger enforces sequential composition across the republishes; it
	// is required. Give several Continuals the same Ledger to account
	// several tenants (or several streams of one tenant) together.
	Ledger *Ledger
	// Mechanism names the registry mechanism every republish runs
	// (empty = "privelet+").
	Mechanism string
	// Params configures each republish; Params.Epsilon is the per-epoch
	// budget debit. Epoch k draws its noise from the derived seed
	// rng.SubstreamSeed(Params.Seed, k), so no two epochs share a noise
	// stream.
	Params Params
	// Window, when positive, keeps only the last Window rows in the
	// frequency matrix (a sliding window over the stream) and
	// automatically attempts a republish every Window rows. 0 means the
	// matrix is cumulative and publishes happen only on Republish calls.
	Window int
}

// Epoch is one continual release: the published window plus the epoch
// number the ledger stamped it with.
type Epoch struct {
	// Tenant is the budget account the epoch was debited from.
	Tenant string
	// Epoch is the tenant's release sequence number (1, 2, …),
	// monotonic across process restarts when the ledger is durable.
	Epoch uint64
	// Release is the published window, queryable like any release.
	Release *Release
}

// ID returns the versioned release identifier, "<tenant>/<epoch>" —
// the ID scheme the daemon's store registers continual releases under.
func (e *Epoch) ID() string { return fmt.Sprintf("%s/%d", e.Tenant, e.Epoch) }

// Continual is the continual-publication mode of the streaming
// Publisher: a tenant feeds rows, and the system republishes the
// current window — on a sliding window of the last Window rows, or on
// demand — with every republish gated by the ledger (sequential
// composition across epochs) and stamped with a monotonically
// increasing epoch number.
//
// The paper's model is one release per dataset (§I: publish once, query
// forever); over an evolving stream each epoch is one such release, and
// the ledger is what keeps the sequence of them inside the tenant's
// total budget. Like Publisher, a Continual is not safe for concurrent
// use; the Ledger it debits is.
type Continual struct {
	opts      ContinualOptions
	pub       *Publisher
	ring      []int // last Window row offsets, circular; nil when Window == 0
	next      int   // ring slot the next row lands in (= the oldest row)
	filled    int   // rows currently in the window
	sinceLast int   // rows since the last republish attempt
}

// NewContinual builds a continual publisher for one tenant's stream.
// It validates the mechanism and Params once, so a malformed Continual
// never touches the ledger.
func NewContinual(schema *Schema, opts ContinualOptions) (*Continual, error) {
	if opts.Ledger == nil {
		return nil, fmt.Errorf("privelet: continual publishing requires a Ledger")
	}
	if err := ledger.ValidateTenant(opts.Tenant); err != nil {
		return nil, err
	}
	if opts.Window < 0 {
		return nil, fmt.Errorf("privelet: negative window %d", opts.Window)
	}
	if opts.Mechanism == "" {
		opts.Mechanism = "privelet+"
	}
	pub, err := NewPublisher(schema)
	if err != nil {
		return nil, err
	}
	mech, err := MechanismByName(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	if err := ValidateParams(mech, schema, opts.Params); err != nil {
		return nil, err
	}
	c := &Continual{opts: opts, pub: pub}
	if opts.Window > 0 {
		c.ring = make([]int, opts.Window)
	}
	return c, nil
}

// Add folds one row into the window. With a sliding window configured,
// the row that falls out of the window is subtracted in the same step
// (O(1), no rescan), and every Window rows an automatic republish is
// attempted: the returned Epoch is non-nil exactly when this Add
// published one. A refused republish (ErrBudgetExhausted) is returned
// as the error — the row itself is already folded in, so ingest may
// continue and a later Republish (after a Grant or refund) can still
// publish the window. The attempt cadence resets either way, so a
// refusal is reported once per window, not once per row.
func (c *Continual) Add(ctx context.Context, vals ...int) (*Epoch, error) {
	off, err := c.pub.offset(vals)
	if err != nil {
		return nil, err
	}
	data := c.pub.freq.M.Data()
	data[off]++
	c.pub.rows++
	if w := c.opts.Window; w > 0 {
		if c.filled == w {
			data[c.ring[c.next]]-- // the oldest row leaves the window
		} else {
			c.filled++
		}
		c.ring[c.next] = off
		c.next = (c.next + 1) % w
	}
	c.sinceLast++
	if w := c.opts.Window; w > 0 && c.sinceLast >= w {
		return c.Republish(ctx)
	}
	return nil, nil
}

// Republish publishes the current window on demand through
// Ledger.Spend: the charge comes before any noise is drawn, the window
// is published at its epoch's own seed, and a failed or cancelled
// publish is refunded but keeps its epoch number. Each call that
// returns an Epoch spent Params.Epsilon of the tenant's budget.
func (c *Continual) Republish(ctx context.Context) (*Epoch, error) {
	c.sinceLast = 0
	var rel *Release
	epoch, err := c.opts.Ledger.Spend(c.opts.Tenant, c.opts.Params.Epsilon, nil, func(epoch uint64) (err error) {
		p := c.opts.Params
		p.Seed = rng.SubstreamSeed(p.Seed, epoch)
		rel, err = c.pub.Publish(ctx, c.opts.Mechanism, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Epoch{Tenant: c.opts.Tenant, Epoch: epoch, Release: rel}, nil
}

// Rows returns how many rows have been folded in over the stream's
// lifetime (not just the current window).
func (c *Continual) Rows() int { return c.pub.Rows() }

// WindowRows returns how many rows the current window holds: the
// lifetime count under a cumulative window, at most Window otherwise.
func (c *Continual) WindowRows() int {
	if c.opts.Window > 0 {
		return c.filled
	}
	return c.pub.Rows()
}
