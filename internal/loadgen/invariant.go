package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

// ViolationCounts tallies invariant breaches by category. All zeros is the
// soak's pass condition.
type ViolationCounts struct {
	// UnjustifiedRows is rows no base policy matches and no churn grant
	// covers anywhere inside the query's lifetime window.
	UnjustifiedRows int64 `json:"unjustified_rows"`
	// DefaultDenyRows is rows returned to a querier that holds no
	// policies at all.
	DefaultDenyRows int64 `json:"default_deny_rows"`
	// RevokedRows is unjustified rows whose owner had a churn grant that
	// was already dead before the query began — a revocation that
	// resurfaced.
	RevokedRows int64 `json:"revoked_rows"`
}

// Total sums every category.
func (v ViolationCounts) Total() int64 {
	return v.UnjustifiedRows + v.DefaultDenyRows + v.RevokedRows
}

// churnEntry is one dynamic grant's conservative liveness window on the
// checker's logical clock. born is stamped before the policy is inserted
// and died after the revocation returns, so the window over-covers the
// grant's real lifetime: a row justified only near the edges is given the
// benefit of the doubt, and the checker never false-alarms under races.
type churnEntry struct {
	principal string
	owner     int64
	born      int64
	died      int64 // 0 while live
}

// querierView is one querier's precomputed justification context: the
// compiled static policy set applicable to it, and the principal closure
// (itself plus its groups) that churn grants may arrive under.
type querierView struct {
	compiled   *policy.CompiledSet
	principals map[string]bool
	deny       bool
}

// Checker is the live invariant checker: under concurrent churn it holds
// every observed result row to the two-legal-worlds bound — the row must
// be justified by a policy that was legal at some point during the
// query's lifetime — keeps default-deny queriers empty, and flags revoked
// grants that resurface.
type Checker struct {
	sc       *Scenario
	ownerCol int

	clock atomic.Int64

	mu      sync.RWMutex
	byOwner map[int64][]*churnEntry
	views   map[string]*querierView
	counts  ViolationCounts
	samples []string
	maxSamp int

	rowsChecked atomic.Int64
}

// NewChecker precompiles the scenario's static policy corpus per querier.
func NewChecker(sc *Scenario, maxSamples int) (*Checker, error) {
	ownerCol := sc.Schema.ColumnIndex(policy.OwnerAttr)
	if ownerCol < 0 {
		return nil, fmt.Errorf("loadgen: relation %s has no %s column", sc.Relation, policy.OwnerAttr)
	}
	c := &Checker{
		sc: sc, ownerCol: ownerCol,
		byOwner: make(map[int64][]*churnEntry),
		views:   make(map[string]*querierView),
		maxSamp: maxSamples,
	}
	add := func(q string, deny bool) error {
		if _, ok := c.views[q]; ok {
			return nil
		}
		qm := policy.Metadata{Querier: q, Purpose: sc.Purpose}
		applicable := policy.Filter(sc.BasePolicies, qm, sc.Relation, sc.Groups)
		if deny && len(applicable) > 0 {
			return fmt.Errorf("loadgen: default-deny querier %s holds %d policies", q, len(applicable))
		}
		cs, err := policy.CompileSet(applicable, sc.Schema)
		if err != nil {
			return err
		}
		principals := map[string]bool{q: true}
		for _, g := range sc.Groups.GroupsOf(q) {
			principals[g] = true
		}
		c.views[q] = &querierView{compiled: cs, principals: principals, deny: deny}
		return nil
	}
	for _, q := range sc.Queriers {
		if err := add(q, false); err != nil {
			return nil, err
		}
	}
	if sc.ChurnQuerier != "" {
		if err := add(sc.ChurnQuerier, false); err != nil {
			return nil, err
		}
	}
	for _, q := range sc.DenyQueriers {
		if err := add(q, true); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Clock reads the logical churn clock. Queries record it immediately
// before starting and the checker reads it again after the last row is
// observed; that [start, now] interval is the query's lifetime window.
func (c *Checker) Clock() int64 { return c.clock.Load() }

// RowsChecked reports how many rows went through full per-row
// justification — the soak's proof that the checker actually ran.
func (c *Checker) RowsChecked() int64 { return c.rowsChecked.Load() }

// WillGrant registers a churn grant about to be inserted for
// principal/owner and stamps its birth. Call before Middleware.AddPolicy.
func (c *Checker) WillGrant(principal string, owner int64) *churnEntry {
	e := &churnEntry{principal: principal, owner: owner}
	c.mu.Lock()
	e.born = c.clock.Add(1)
	c.byOwner[owner] = append(c.byOwner[owner], e)
	c.mu.Unlock()
	return e
}

// DidRevoke stamps the grant's death. Call after Middleware.RevokePolicy
// has returned.
func (c *Checker) DidRevoke(e *churnEntry) {
	c.mu.Lock()
	e.died = c.clock.Add(1)
	c.mu.Unlock()
}

// violation records one breach sample and bumps its category.
func (c *Checker) violation(bump func(*ViolationCounts), format string, args ...any) {
	c.mu.Lock()
	bump(&c.counts)
	if len(c.samples) < c.maxSamp {
		c.samples = append(c.samples, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// Violations snapshots the counts and breach samples.
func (c *Checker) Violations() (ViolationCounts, []string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.counts, append([]string(nil), c.samples...)
}

// CheckRows holds a query's observed rows to the enforcement invariants.
// qStart must be the Clock() value read before the query began. Rows are
// justified row by row only for RowCheck queries (SELECT * over the
// protected relation); every query of a default-deny querier must come
// back empty.
func (c *Checker) CheckRows(querier string, qStart int64, q Query, rows []storage.Row, cols []string) {
	if len(rows) == 0 {
		return
	}
	qEnd := c.clock.Load()
	c.mu.RLock()
	view := c.views[querier]
	c.mu.RUnlock()
	if view == nil {
		return
	}
	if view.deny {
		c.violation(func(v *ViolationCounts) { v.DefaultDenyRows += int64(len(rows)) },
			"default-deny leak: querier %s received %d rows from %s", querier, len(rows), q.Name)
		return
	}
	if !q.RowCheck || len(cols) != c.sc.Schema.Len() {
		return
	}
	for _, row := range rows {
		if len(row) != c.sc.Schema.Len() {
			continue
		}
		c.rowsChecked.Add(1)
		owner := row[c.ownerCol].I
		matched, _, err := view.compiled.EvalOwnerFirstMatch(owner, row, nil)
		if err != nil {
			c.violation(func(v *ViolationCounts) { v.UnjustifiedRows++ },
				"checker error: querier %s query %s owner %d: %v", querier, q.Name, owner, err)
			continue
		}
		if matched {
			continue
		}
		justified, sawDead := c.churnJustifies(view, owner, qStart, qEnd)
		if justified {
			continue
		}
		if sawDead {
			c.violation(func(v *ViolationCounts) { v.RevokedRows++ },
				"revoked grant resurfaced: querier %s query %s owner %d window [%d,%d]",
				querier, q.Name, owner, qStart, qEnd)
		} else {
			c.violation(func(v *ViolationCounts) { v.UnjustifiedRows++ },
				"unjustified row: querier %s query %s owner %d window [%d,%d]",
				querier, q.Name, owner, qStart, qEnd)
		}
	}
}

// churnJustifies reports whether some churn grant to one of the
// querier's principals covers owner anywhere inside [qStart, qEnd]. A
// grant justifies the row if it was born by qEnd and not dead until
// after qStart (died > qStart: the death stamp happens after the
// revocation returned, so a query starting at or past that stamp can
// never legally see the grant). sawDead reports whether any applicable
// grant existed at all — it separates "revocation resurfaced" from
// "never granted".
func (c *Checker) churnJustifies(view *querierView, owner, qStart, qEnd int64) (justified, sawDead bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, e := range c.byOwner[owner] {
		if !view.principals[e.principal] {
			continue
		}
		sawDead = true
		if e.born <= qEnd && (e.died == 0 || e.died > qStart) {
			return true, true
		}
	}
	return false, sawDead
}
