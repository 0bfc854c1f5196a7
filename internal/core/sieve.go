// Package core implements the SIEVE middleware itself (§5): it intercepts
// queries bound for the underlying database, filters the policy corpus by
// query metadata, keeps one guarded expression per distinct applicable
// policy set in process — shared by every (querier, purpose, relation) claim
// that resolves to it, invalidated by the rP trigger, regenerated from rP on
// the next query and on a cold start — chooses an execution strategy from a
// cost model (Inline vs Δ per guard, LinearScan vs IndexQuery vs IndexGuards
// per table), rewrites the query with WITH clauses and
// dialect-appropriate index hints, and hands the rewritten SQL to the engine
// — or, through Session.RewriteSQL and Stmt.EmitSQL, emits it as executable
// MySQL/PostgreSQL for an external backend. The three baselines of the
// evaluation (BaselineP, BaselineI, BaselineU, §7.2 Experiment 3) live here
// too.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// DeltaUDFName is the engine UDF implementing the Δ operator (§5.2). Its
// first argument is a check-set id; the remaining arguments are the
// relation's attributes in schema order, exactly as the paper's UDF takes
// ([policy], querier, purpose, [attrs]) — querier/purpose are baked into
// the check set at rewrite time.
const DeltaUDFName = "sieve_delta"

// DefaultDeltaThreshold is the partition size beyond which the Δ operator
// beats inlining. The paper measures the crossover at |PG_i| ≈ 120 on
// MySQL (§5.4, Experiment 2.1).
const DefaultDeltaThreshold = 120

// Middleware is a SIEVE instance layered over one database.
type Middleware struct {
	db     *engine.DB
	store  *policy.Store
	groups policy.Groups
	cm     guard.CostModel

	deltaThreshold int
	eagerRegen     bool
	regen          RegenConfig
	forced         Strategy         // non-empty pins the §5.5 strategy (ablations)
	genOpts        guard.GenOptions // guard-generation ablation switches
	noHints        bool             // suppress index hints even on mysql (ablation)

	// epoch counts policy-visibility changes (inserts, revocations,
	// newly protected relations, administrative invalidation). It is an
	// observability counter: plan validity is carried by the signature
	// tokens (see resolutionToken), so churn no longer discards unrelated
	// cached plans the way a global epoch check would.
	epoch atomic.Uint64

	mu        sync.Mutex
	protected map[string]bool
	// claims maps (querier, purpose, relation) to its binding onto a
	// shared guard state; states buckets the shared states by
	// (relation, signature hash); byPrincipal is the scoped-invalidation
	// index from (relation, principal) to the claims a policy naming that
	// pair can affect; flights holds the signatures being generated
	// outside mu right now (see resolveClaimLocked).
	claims      map[geKey]*claim
	states      map[stateKey][]*geState
	flights     map[stateKey]chan struct{}
	byPrincipal map[relPrincipal]map[*claim]struct{}
	// patchBases holds, per (relation, principal) scope, what the last
	// policy write to it superseded: the base a re-resolving claim under
	// that scope patches its new state from (see choosePatchBaseLocked).
	patchBases  map[relPrincipal]*patchBase
	nextStateID uint64
	stats       cacheStats
	// registry maps check-set ids to their *checkSet. Written under mu,
	// read lock-free by the Δ UDF (lookupCheckSet).
	registry  sync.Map
	nextSetID int64

	// hookGenerated, when non-nil, runs outside mu after a state has been
	// generated and before it is published. Tests park a generation here
	// to interleave readers and policy churn.
	hookGenerated func()

	// planHits/planMisses aggregate Stmt plan-token lookups; atomics
	// because Stmt bumps them without holding m.mu.
	planHits, planMisses atomic.Int64

	// durMu guards the durability hook (SetDurability); Protect logs
	// through it so a recovered instance re-protects the same relations.
	durMu sync.RWMutex
	dur   DurabilityLog
}

// DurabilityLog is the middleware's WAL hook (internal/wal implements
// it): Protect appends a record before the relation joins the protected
// set, so the enforcement perimeter itself survives a crash — a relation
// protected before the crash can never come back unprotected. The
// commit-closure contract matches engine.WAL.
type DurabilityLog interface {
	AppendProtect(relation string, check func() error) (commit func(), err error)
}

// SetDurability attaches the WAL hook. Attach at wiring time, after
// recovery has re-protected the recovered relations.
func (m *Middleware) SetDurability(d DurabilityLog) {
	m.durMu.Lock()
	defer m.durMu.Unlock()
	m.dur = d
}

// durability returns the attached hook, or nil.
func (m *Middleware) durability() DurabilityLog {
	m.durMu.RLock()
	defer m.durMu.RUnlock()
	return m.dur
}

type geKey struct {
	querier  string
	purpose  string
	relation string
}

// geState is one generated guarded expression, shared by every claim
// whose applicable policy set matches its signature. Immutable after
// generation except for the refcount/claim bookkeeping, which m.mu
// guards; the per-claim dynamic state (§5.1 validity, §6 pending
// policies) lives on the claims bound to it.
type geState struct {
	ge *guard.GuardedExpression
	// relation plus ids/hash form the signature: the canonical sorted
	// applicable-policy-id set the expression was generated from.
	relation string
	ids      []int64
	hash     uint64
	// drift counts the policy ids changed since the expression's last full
	// generation: 0 for a generated state, the base's drift plus the ids
	// patched in or out for a patched one (see choosePatchBaseLocked).
	drift int
	// stateID is a process-unique generation token; plan-cache tokens
	// embed it, so replacing a state invalidates exactly the plans that
	// used it.
	stateID uint64
	// setIDs are the Δ check-set ids registered for this expression's
	// guards; dropped when the state retires.
	setIDs []int64
	// deltaSets maps guard index → Δ check-set id for guards whose
	// partitions exceed the Δ threshold (§5.4).
	deltaSets map[int]int64
	// claims are the claims bound to the state, valid or not. gone marks a
	// retired state: out of the signature index, bound to no claim. Atomic
	// because a Stmt checks it on its cached plans without m.mu.
	claims map[*claim]struct{}
	gone   atomic.Bool
	// arms, guardOr and guardCols are the guard arms every rewrite over
	// this state injects, their disjunction and their distinct columns —
	// built once, at the first rewrite (see guardArms), not under m.mu.
	armsOnce  sync.Once
	armsBuilt atomic.Bool // arms may be read without armsOnce
	arms      []engine.GuardArm
	guardOr   sqlparser.Expr
	guardCols []string
	// from and baseArms are a patched state's link to its base until its
	// arms are built: from[gi] is the base guard guard gi is unchanged from
	// (−1 if none), baseArms the base's arms, when it had built them.
	from     []int
	baseArms []engine.GuardArm
	// filter is guardOr's registration with the engine (when it is a
	// disjunction): its compiled filter, shared by every execution over the
	// state, until removeStateLocked releases it. Atomic because guardArms
	// stores it outside m.mu while a retirement may read it under m.mu.
	filter atomic.Pointer[engine.SharedFilter]
	// zoneArms are the guards' segment-refutation arms (guardZoneArms).
	zoneOnce sync.Once
	zoneArms []storage.ZoneArm
}

// Option configures the middleware.
type Option func(*Middleware)

// WithGroups supplies the group membership resolver used for querier-side
// group policies.
func WithGroups(g policy.Groups) Option {
	return func(m *Middleware) { m.groups = g }
}

// WithDeltaThreshold overrides the partition size at which guards switch
// from inlined policies to the Δ operator (§5.4). Zero disables Δ.
func WithDeltaThreshold(n int) Option {
	return func(m *Middleware) { m.deltaThreshold = n }
}

// WithRegenInterval enables the §6 deferred-regeneration mode: a stale
// guarded expression is reused (with pending policies appended as extra
// owner-guarded arms) until the optimal insertion count k̃ is reached.
func WithRegenInterval(cfg RegenConfig) Option {
	return func(m *Middleware) { m.eagerRegen = false; m.regen = cfg }
}

// WithForcedStrategy pins the per-table strategy instead of choosing by
// cost (§5.5) — used by Experiment 2.2 and the ablation benches.
func WithForcedStrategy(s Strategy) Option {
	return func(m *Middleware) { m.forced = s }
}

// WithGuardGenOptions applies guard-generation ablation switches (disable
// Theorem 1 merging, owner-only guards).
func WithGuardGenOptions(opts guard.GenOptions) Option {
	return func(m *Middleware) { m.genOpts = opts }
}

// WithoutHints suppresses index usage hints even on hint-honouring
// dialects — the ablation quantifying what §5.3's FORCE INDEX buys.
func WithoutHints() Option {
	return func(m *Middleware) { m.noHints = true }
}

// New builds a SIEVE middleware over a database and its policy store.
func New(store *policy.Store, opts ...Option) (*Middleware, error) {
	m := &Middleware{
		db:             store.DB(),
		store:          store,
		groups:         policy.NoGroups,
		cm:             guard.DefaultCostModel(),
		deltaThreshold: DefaultDeltaThreshold,
		eagerRegen:     true,
		regen:          DefaultRegenConfig(),
		protected:      make(map[string]bool),
		claims:         make(map[geKey]*claim),
		states:         make(map[stateKey][]*geState),
		flights:        make(map[stateKey]chan struct{}),
		byPrincipal:    make(map[relPrincipal]map[*claim]struct{}),
		patchBases:     make(map[relPrincipal]*patchBase),
	}
	for _, o := range opts {
		o(m)
	}
	m.registerDeltaUDF()
	// Trigger on rP: a policy insert invalidates the claims it can affect
	// (§5.1), which regenerate or, under §6, serve it as a pending arm.
	m.db.OnInsert(policy.TableP, m.onPolicyInserted)
	return m, nil
}

// DB exposes the underlying engine.
func (m *Middleware) DB() *engine.DB { return m.db }

// Store exposes the policy store.
func (m *Middleware) Store() *policy.Store { return m.store }

// Groups returns the group-membership resolver in use.
func (m *Middleware) Groups() policy.Groups { return m.groups }

// CostModel returns the model in use.
func (m *Middleware) CostModel() guard.CostModel { return m.cm }

// Protect registers a relation as access-controlled. Protected relations
// are rewritten on every query; default-deny applies when a querier has no
// applicable policies. The relation must carry the indexed owner attribute
// (§3.1).
func (m *Middleware) Protect(relation string) error {
	t, ok := m.db.Table(relation)
	if !ok {
		return fmt.Errorf("sieve: unknown relation %q", relation)
	}
	if !t.Schema.HasColumn(policy.OwnerAttr) {
		return fmt.Errorf("sieve: relation %q lacks the %q attribute", relation, policy.OwnerAttr)
	}
	if _, ok := t.Index(policy.OwnerAttr); !ok {
		if err := m.db.CreateIndex(relation, policy.OwnerAttr); err != nil {
			return err
		}
	}
	// Log after the physical preparation (the CreateIndex above logged as
	// its own DDL record), before the relation joins the protected set: a
	// crash between the two replays the index build but not the
	// protection — consistent, because the Protect was never acked.
	if d := m.durability(); d != nil {
		commit, err := d.AppendProtect(relation, nil)
		if err != nil {
			return err
		}
		defer commit()
	}
	m.mu.Lock()
	m.protected[relation] = true
	m.mu.Unlock()
	m.epoch.Add(1)
	return nil
}

// ProtectedRelations returns the access-controlled relations, sorted —
// the set a durability snapshot records so recovery re-protects exactly
// what the crashed instance enforced.
func (m *Middleware) ProtectedRelations() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.protected))
	for r := range m.protected {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Epoch returns the policy-visibility epoch: it advances on every event
// that can change what some querier is allowed to see (policy insert or
// revocation, Protect, InvalidateAll). It is a churn counter for
// observability (sieve_policy_epoch on /metrics); plan validity is scoped per signature via the
// plan tokens, not gated on this global value.
func (m *Middleware) Epoch() uint64 { return m.epoch.Load() }

// Protected reports whether a relation is access-controlled.
func (m *Middleware) Protected(relation string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.protected[relation]
}

// AddPolicy inserts a policy through the store, firing the invalidation
// trigger.
func (m *Middleware) AddPolicy(p *policy.Policy) error { return m.store.Insert(p) }

// RevokePolicy removes a policy (§6) and invalidates exactly the guard
// states and claims it contributed to. The store shrinks FIRST: any
// signature re-resolution ordered after the invalidation below then
// necessarily sees the post-revocation policy set, so a revoked grant can
// never be re-validated into a fresh state.
func (m *Middleware) RevokePolicy(id int64) error {
	p, err := m.store.Revoke(id)
	if err != nil {
		return err
	}
	defer m.epoch.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.scopedInvalidations++
	// Retire every shared state whose signature contains the revoked id:
	// revocation shrinks the grant set, which appended arms cannot
	// express, so these generations must never be re-bound. Retirement
	// force-invalidates the claims bound to them, wherever they came
	// from — the principal index below additionally catches claims whose
	// pending set held the policy. A state still being generated is in no
	// bucket yet; its publisher re-resolves under mu (resolveClaimLocked).
	// The most-bound of them is recorded first, as the base the scope's
	// claims patch their next states from.
	var gone []*geState
	var superseded *geState
	for sk, bucket := range m.states {
		if sk.relation != p.Relation {
			continue
		}
		for _, st := range bucket {
			if _, found := slices.BinarySearch(st.ids, p.ID); found {
				gone = append(gone, st)
				superseded = mostBound(superseded, st)
			}
		}
	}
	m.recordPatchBaseLocked(relPrincipal{relation: p.Relation, principal: p.Querier}, superseded)
	for _, st := range gone {
		m.removeStateLocked(st)
	}
	for c := range m.byPrincipal[relPrincipal{relation: p.Relation, principal: p.Querier}] {
		m.invalidateClaimLocked(c, true)
	}
	return nil
}

// selectivityFor builds the guard-generation selectivity model for a
// relation from the engine's statistics, refreshing them if absent.
func (m *Middleware) selectivityFor(relation string) (guard.Selectivity, error) {
	// StatsRefreshed re-analyzes (histograms + zone maps) when enough
	// mutations accumulated since the last build, so guard selectivity
	// estimates track bulk loads instead of the load-time snapshot.
	stats, ok := m.db.StatsRefreshed(relation)
	if !ok {
		if err := m.db.Analyze(relation); err != nil {
			return nil, err
		}
		stats, _ = m.db.Stats(relation)
	}
	t := m.db.MustTable(relation)
	indexed := make(map[string]bool)
	for _, c := range t.IndexedColumns() {
		indexed[c] = true
	}
	return &guard.TableSelectivity{Stats: stats, IndexedCols: indexed, Table: t}, nil
}

// onPolicyInserted is the rP insert trigger (§5.1), now scoped: only the
// claims registered under the (relation, querier-principal) the policy
// names — filtered by purpose — are flagged for re-resolution. Claims for
// other principals, purposes, or relations keep their valid bindings and
// their prepared plans. The store caches the policy before the rP insert
// fires this trigger, so a flagged claim's re-resolution always sees the
// new grant. The rP row layout is
// ⟨id, owner, querier, associated_table, purpose, action, inserted_at⟩.
func (m *Middleware) onPolicyInserted(_ string, row storage.Row) {
	querier, relation, purpose := row[2].S, row[3].S, row[4].S
	defer m.epoch.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.scopedInvalidations++
	rp := relPrincipal{relation: relation, principal: querier}
	var superseded *geState
	for c := range m.byPrincipal[rp] {
		if purpose != policy.AnyPurpose && purpose != c.key.purpose {
			continue
		}
		m.invalidateClaimLocked(c, false)
		superseded = mostBound(superseded, c.state)
	}
	m.recordPatchBaseLocked(rp, superseded)
}
