package privelet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"unicode"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/hay"
	"repro/internal/matrix"
	"repro/internal/postprocess"
	"repro/internal/privacy"
	"repro/internal/query"
)

// Params configures one mechanism invocation. It is mechanism-agnostic:
// every registered mechanism consumes the same parameter set and rejects
// the fields it cannot honour (for example, SA on a mechanism without a
// transform to exclude attributes from).
type Params struct {
	// Epsilon is the ε-differential-privacy budget (positive and finite).
	Epsilon float64
	// SA lists attributes excluded from the wavelet transform. Only the
	// "privelet+" mechanism accepts a non-empty SA; the others have no
	// transform/SA split and reject it rather than silently ignore it.
	SA []string
	// Seed drives the deterministic noise stream; equal seeds give
	// bit-identical releases at any Parallelism.
	Seed uint64
	// Parallelism caps the publish engine's worker goroutines; ≤ 0
	// defaults to runtime.GOMAXPROCS(0). It never affects release values.
	Parallelism int
	// Sanitize post-processes the release to non-negative integer counts.
	// It is applied by the release builder after the mechanism runs, so
	// individual mechanisms never see it.
	Sanitize bool
}

// Frequency is a schema-shaped frequency matrix — the paper's M, and the
// input every mechanism consumes. Build one with NewFrequency, from a
// buffered table with TableFrequency, or incrementally with a Publisher.
// Treat both fields as read-only once the Frequency is handed to a
// mechanism.
type Frequency struct {
	// Schema describes the attributes; M's shape equals Schema.Dims().
	Schema *Schema
	// M holds the (exact) frequency counts.
	M *Matrix
}

// NewFrequency validates that m is shaped by schema and couples them.
func NewFrequency(schema *Schema, m *Matrix) (*Frequency, error) {
	if schema == nil || m == nil {
		return nil, fmt.Errorf("privelet: nil frequency components")
	}
	want, got := schema.Dims(), m.Dims()
	if len(want) != len(got) {
		return nil, fmt.Errorf("privelet: matrix dimensionality %d, schema has %d attributes", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return nil, fmt.Errorf("privelet: matrix shape %v does not match schema %v", got, want)
		}
	}
	return &Frequency{Schema: schema, M: m}, nil
}

// TableFrequency materializes a buffered table's frequency matrix. The
// streaming Publisher is the preferred ingest path when n is large; this
// helper serves callers that already hold a Table.
func TableFrequency(t *Table) (*Frequency, error) {
	m, err := t.FrequencyMatrix()
	if err != nil {
		return nil, err
	}
	return &Frequency{Schema: t.Schema(), M: m}, nil
}

// Result is a mechanism's raw output: the noisy matrix M* plus the
// privacy accounting a release carries (Noisy, Epsilon, Rho, Lambda,
// VarianceBound). PublishWith wraps it into a queryable Release; serving
// layers that persist releases consume it directly. The Figure-5
// mechanisms fill it from their core.Plan: Rho is the transform's
// generalized sensitivity (1 for "basic") and Lambda = 2ρ/ε. For "hay",
// Rho is the tree height h and Lambda its per-node Laplace magnitude
// 2h/ε.
type Result = core.Result

// Mechanism is one ε-differentially-private publishing algorithm: it
// maps an exact frequency matrix to a noisy one plus accounting. All
// built-in mechanisms are deterministic in (freq, Params) — equal seeds
// give bit-identical releases — and honour ctx cancellation as described
// on core.PublishMatrix.
//
// Implementations must be safe for concurrent use: one registered
// mechanism value serves every publish in the process.
type Mechanism interface {
	// Name returns the registry key, e.g. "privelet+". Names are
	// lowercase, stable across releases of this module, and embedded in
	// the codec header of every release the mechanism publishes.
	Name() string
	// Publish releases freq under p. The input matrix must not be
	// modified.
	Publish(ctx context.Context, freq *Frequency, p Params) (*Result, error)
}

// ParamsValidator is optionally implemented by a Mechanism that can
// check (schema, Params) compatibility without any data. Streaming
// front ends call it before ingest, so a request that the mechanism
// would reject anyway (SA on a transform-free mechanism, a
// multi-attribute schema on "hay", a non-positive ε, or on the Figure-5
// mechanisms one so small that λ is not finite) fails before the whole
// input is read rather than after. All built-ins implement it.
type ParamsValidator interface {
	ValidateParams(schema *Schema, p Params) error
}

// ValidateParams runs the mechanism's pre-ingest check when it offers
// one; mechanisms without it validate at Publish time only.
func ValidateParams(m Mechanism, schema *Schema, p Params) error {
	if v, ok := m.(ParamsValidator); ok {
		return v.ValidateParams(schema, p)
	}
	return nil
}

// mechanisms is the process-wide registry. A mutex-guarded map (rather
// than sync.Map) keeps registration errors synchronous and lookup simple;
// registration happens at init time, lookups are read-mostly.
var (
	mechMu     sync.RWMutex
	mechanisms = make(map[string]Mechanism)
)

// RegisterMechanism adds m to the registry under m.Name(). It errors on
// an invalid name (empty, or containing whitespace/control characters —
// names travel through CLI flags, query parameters and the codec
// header, all of which need them token-shaped) or a name already
// taken — mechanisms are process-wide, so a collision is a programming
// error surfaced to the caller rather than a silent overwrite.
// Extensions register from their own init functions; the four built-ins
// are registered by this package.
func RegisterMechanism(m Mechanism) error {
	if m == nil || m.Name() == "" {
		return fmt.Errorf("privelet: mechanism with empty name")
	}
	for _, r := range m.Name() {
		if unicode.IsSpace(r) || unicode.IsControl(r) {
			return fmt.Errorf("privelet: mechanism name %q contains whitespace or control characters", m.Name())
		}
	}
	mechMu.Lock()
	defer mechMu.Unlock()
	if _, dup := mechanisms[m.Name()]; dup {
		return fmt.Errorf("privelet: mechanism %q already registered", m.Name())
	}
	mechanisms[m.Name()] = m
	return nil
}

// MechanismByName resolves a registered mechanism. The error for an
// unknown name lists the registered ones, so it is directly usable as a
// CLI or HTTP 400 message.
func MechanismByName(name string) (Mechanism, error) {
	mechMu.RLock()
	m, ok := mechanisms[name]
	mechMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("privelet: unknown mechanism %q (registered: %v)", name, Mechanisms())
	}
	return m, nil
}

// Mechanisms returns the registered mechanism names, sorted.
func Mechanisms() []string {
	mechMu.RLock()
	defer mechMu.RUnlock()
	out := make([]string, 0, len(mechanisms))
	for name := range mechanisms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// mustRegister is RegisterMechanism for the package's own init path,
// where a failure is unreachable short of a duplicated built-in name.
func mustRegister(m Mechanism) {
	if err := RegisterMechanism(m); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister(engineMech{name: "privelet+"})
	mustRegister(engineMech{name: "privelet", noSA: `transforms every attribute (use "privelet+")`})
	mustRegister(engineMech{name: "basic", allSA: true, noSA: "noises every entry directly"})
	mustRegister(hayMech{})
}

// PublishWith runs the named mechanism on freq and wraps its Result into
// a queryable Release (building the prefix-sum evaluator and applying
// p.Sanitize). It is the one publish entry point; Publisher.Publish
// funnels through it.
func PublishWith(ctx context.Context, mechanism string, freq *Frequency, p Params) (*Release, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mech, err := MechanismByName(mechanism)
	if err != nil {
		return nil, err
	}
	if freq == nil || freq.Schema == nil || freq.M == nil {
		return nil, fmt.Errorf("privelet: nil frequency")
	}
	res, err := mech.Publish(ctx, freq, p)
	if err != nil {
		return nil, err
	}
	// ctx is observed again between the mechanism and the post stages,
	// and once more before the Release is handed out, so a cancelled
	// publish never releases anything — cancellation inside the
	// mechanism is chunk-granular (see core), the post stages observe it
	// at their boundaries.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	noisy := res.Noisy
	if p.Sanitize {
		noisy = postprocess.Sanitize(noisy)
	}
	// The evaluator build runs on the same worker budget as the
	// mechanism (NewEvaluatorWorkers resolves ≤ 0 to all cores) and is
	// bit-identical at any worker count (matrix.PrefixSumExec preserves
	// every scan's order).
	eval := query.NewEvaluatorWorkers(noisy, p.Parallelism)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Release{
		schema: freq.Schema,
		noisy:  noisy,
		eval:   eval,
		meta: codec.Meta{
			Mechanism: mech.Name(),
			Epsilon:   res.Epsilon,
			Rho:       res.Rho,
			Lambda:    res.Lambda,
			Bound:     res.VarianceBound,
		},
	}, nil
}

// engineMech is one of the paper's Figure-5 mechanisms, all of them
// core.PublishMatrix at some SA: Privelet+ (§VI-B) at the caller's SA,
// plain Privelet (§III) at SA = ∅, and Dwork et al.'s Basic mechanism
// (§II-B) at SA = every attribute, where no transform is built and every
// entry gets Laplace(2/ε) noise.
type engineMech struct {
	name string
	// allSA publishes with every attribute in SA (Basic); otherwise the
	// mechanism publishes with the caller's SA.
	allSA bool
	// noSA, when set, is why the mechanism refuses a caller's SA.
	noSA string
}

func (m engineMech) Name() string { return m.name }

// sa returns the SA the mechanism publishes p with.
func (m engineMech) sa(schema *Schema, p Params) ([]string, error) {
	switch {
	case m.noSA == "":
		return p.SA, nil
	case len(p.SA) > 0:
		return nil, fmt.Errorf("privelet: mechanism %q %s and takes no SA", m.name, m.noSA)
	case m.allSA:
		return schema.Names(), nil
	}
	return nil, nil
}

// ValidateParams builds the publish's core.Plan, so it refuses exactly
// the SA and ε the engine would refuse after ingest.
func (m engineMech) ValidateParams(schema *Schema, p Params) error {
	sa, err := m.sa(schema, p)
	if err != nil {
		return err
	}
	_, err = core.NewPlan(schema, p.Epsilon, sa)
	return err
}

func (m engineMech) Publish(ctx context.Context, freq *Frequency, p Params) (*Result, error) {
	sa, err := m.sa(freq.Schema, p)
	if err != nil {
		return nil, err
	}
	return core.PublishMatrix(ctx, freq.M, freq.Schema, core.Options{
		Epsilon: p.Epsilon, SA: sa, Seed: p.Seed, Parallelism: p.Parallelism,
	})
}

// hayMech is Hay et al.'s hierarchical-consistency mechanism — the
// closest independent work the paper compares against (§VIII). It is
// one-dimensional by construction: the schema must have exactly one
// attribute. The released histogram is L2-consistent, so the generic
// prefix-sum evaluator answers every interval query with exactly the
// dyadic-decomposition estimate the mechanism is analyzed under.
type hayMech struct{}

func (hayMech) Name() string { return "hay" }

func (m hayMech) ValidateParams(schema *Schema, p Params) error {
	if err := privacy.CheckEpsilon(p.Epsilon); err != nil {
		return fmt.Errorf("privelet: mechanism %q: %w", m.Name(), err)
	}
	if d := schema.NumAttrs(); d != 1 {
		return fmt.Errorf(`privelet: mechanism "hay" is one-dimensional, schema has %d attributes`, d)
	}
	if len(p.SA) > 0 {
		return fmt.Errorf(`privelet: mechanism "hay" has no transform and takes no SA`)
	}
	return nil
}

func (m hayMech) Publish(ctx context.Context, freq *Frequency, p Params) (*Result, error) {
	if err := m.ValidateParams(freq.Schema, p); err != nil {
		return nil, err
	}
	res, err := hay.Publish(ctx, freq.M.Data(), p.Epsilon, p.Seed)
	if err != nil {
		return nil, err
	}
	noisy, err := matrix.New(freq.Schema.Attr(0).Size)
	if err != nil {
		return nil, err
	}
	copy(noisy.Data(), res.Histogram)
	return &Result{
		Noisy:         noisy,
		Epsilon:       res.Epsilon,
		Rho:           float64(res.Height),
		Lambda:        res.Magnitude,
		VarianceBound: hay.VarianceBound(res.Epsilon, freq.Schema.Attr(0).Size),
	}, nil
}
