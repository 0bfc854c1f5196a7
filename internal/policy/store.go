package policy

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Table names for policy persistence (§5.1).
const (
	TableP  = "sieve_policies"          // rP
	TableOC = "sieve_object_conditions" // rOC
)

// Store persists policies in the engine's rP and rOC relations and keeps an
// in-memory cache for the hot lookup paths (the Δ operator and P_QM
// filtering). The cache and the relations are maintained together; loading
// an existing database reconstructs the cache from the relations.
//
// One RWMutex guards the cache. Its one reader on the query path,
// PoliciesFor via core's claim resolution, runs under the middleware's
// own lock, and every writer takes that lock right after touching the
// cache (Insert through the rP trigger, Revoke through RevokePolicy), so
// finer locking here would buy no parallelism.
type Store struct {
	db *engine.DB

	mu sync.RWMutex
	// byQuerier is querier name → relation → that querier's policies, in
	// id order. The per-relation sub-index keeps PoliciesFor proportional
	// to the policies that can actually apply, not to everything a busy
	// group owns across relations.
	byQuerier map[string]map[string][]*Policy
	byID      map[int64]*Policy

	// meta guards the id/clock generators only.
	meta   sync.Mutex
	nextID int64
	clock  int64

	// rowsMu serialises deleteRows, the one place that holds rP/rOC row ids.
	rowsMu sync.Mutex

	// durMu guards the durability hook pointer (set at wiring time).
	durMu sync.RWMutex
	dur   Durability
}

// NewStore creates (or reattaches to) the policy relations in db.
func NewStore(db *engine.DB) (*Store, error) {
	s := &Store{db: db, nextID: 1, byQuerier: map[string]map[string][]*Policy{}, byID: map[int64]*Policy{}}
	if _, ok := db.Table(TableP); !ok {
		pSchema := storage.MustSchema(
			storage.Column{Name: "id", Type: storage.KindInt},
			storage.Column{Name: "owner", Type: storage.KindInt},
			storage.Column{Name: "querier", Type: storage.KindString},
			storage.Column{Name: "associated_table", Type: storage.KindString},
			storage.Column{Name: "purpose", Type: storage.KindString},
			storage.Column{Name: "action", Type: storage.KindString},
			storage.Column{Name: "inserted_at", Type: storage.KindInt},
		)
		if _, err := db.CreateTable(TableP, pSchema); err != nil {
			return nil, err
		}
		for _, col := range []string{"id", "owner", "querier"} {
			if err := db.CreateIndex(TableP, col); err != nil {
				return nil, err
			}
		}
		ocSchema := storage.MustSchema(
			storage.Column{Name: "id", Type: storage.KindInt},
			storage.Column{Name: "policy_id", Type: storage.KindInt},
			storage.Column{Name: "attr", Type: storage.KindString},
			storage.Column{Name: "op", Type: storage.KindString},
			storage.Column{Name: "val", Type: storage.KindString},
		)
		if _, err := db.CreateTable(TableOC, ocSchema); err != nil {
			return nil, err
		}
		if err := db.CreateIndex(TableOC, "policy_id"); err != nil {
			return nil, err
		}
	} else if err := s.loadFromTables(); err != nil {
		return nil, err
	}
	return s, nil
}

// DB exposes the backing engine.
func (s *Store) DB() *engine.DB { return s.db }

// Len returns the number of stored policies.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// All returns the stored policies sorted by id. The slice is freshly
// assembled per call; callers must not mutate the policies themselves.
func (s *Store) All() []*Policy {
	s.mu.RLock()
	out := make([]*Policy, 0, len(s.byID))
	for _, p := range s.byID {
		out = append(out, p)
	}
	s.mu.RUnlock()
	Sort(out)
	return out
}

// ByID looks a policy up by id.
func (s *Store) ByID(id int64) (*Policy, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.byID[id]
	return p, ok
}

// PoliciesFor returns P_QM^i for one relation: allow-policies whose querier
// conditions match the metadata directly or via group membership (§3.2).
// The result is sorted by id, so two queriers with the same applicable set
// get byte-identical signatures: every name's list is kept in id order
// (see cache), and the lists of the querier and its groups are merged. A
// policy lives under its own querier name only, so visiting each DISTINCT
// name once yields no duplicates. The duplicate-skip below guards against
// Groups resolvers that return the querier itself or repeated group names:
// a duplicated policy id would break signature canonicality (splitting
// otherwise-identical profiles) and duplicate guard arms.
func (s *Store) PoliciesFor(qm Metadata, relation string, groups Groups) []*Policy {
	names := append([]string{qm.Querier}, groups.GroupsOf(qm.Querier)...)
	var ends [8]int
	runs := append(ends[:0], 0) // out[runs[i]:runs[i+1]] is one name's run
	s.mu.RLock()
	distinct, lists := names[:0], 0
	for _, name := range names {
		if !slices.Contains(distinct, name) {
			distinct = append(distinct, name)
			lists += len(s.byQuerier[name][relation])
		}
	}
	out := make([]*Policy, 0, lists)
	for _, name := range distinct {
		// Every policy filed under name names the querier or one of its
		// groups, so of AppliesTo only the purpose and context tests remain.
		for _, p := range s.byQuerier[name][relation] {
			if p.Grants(qm) {
				out = append(out, p)
			}
		}
		if len(out) > runs[len(runs)-1] {
			runs = append(runs, len(out))
		}
	}
	s.mu.RUnlock()
	return mergeRuns(out, runs)
}

// mergeRuns merges the id-ordered runs ps[runs[i]:runs[i+1]] pairwise,
// level by level, into one id-ordered slice, which it returns (ps itself
// when there is at most one run).
func mergeRuns(ps []*Policy, runs []int) []*Policy {
	if len(runs) <= 2 {
		return ps
	}
	buf := make([]*Policy, len(ps))
	for len(runs) > 2 {
		n := len(runs) - 1 // runs on this level
		w := 1
		for i := 0; i < n; i += 2 {
			lo, mid, hi := runs[i], runs[i+1], runs[i+1]
			if i+1 < n {
				hi = runs[i+2]
			}
			mergeByID(buf[lo:hi], ps[lo:mid], ps[mid:hi])
			runs[w] = hi
			w++
		}
		runs = runs[:w]
		ps, buf = buf, ps
	}
	return ps
}

// mergeByID merges the id-ordered a and b into dst (len(a)+len(b) long).
func mergeByID(dst, a, b []*Policy) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || i < len(a) && a[i].ID < b[j].ID {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// Insert persists one policy, assigning its ID and insertion timestamp.
// The write goes through engine.Insert so that rP insert triggers (guard
// invalidation, §5.1) fire. The in-memory cache is updated BEFORE the rP
// row lands: the trigger announces the policy to the middleware, and any
// signature resolution racing that announcement must already see the
// policy in the store — caching after the insert would leave a window in
// which a claim re-validates against the pre-insert set and the new grant
// stays invisible until the next churn event.
func (s *Store) Insert(p *Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.meta.Lock()
	p.ID = s.nextID
	s.nextID++
	s.clock++
	p.InsertedAt = s.clock
	s.meta.Unlock()

	// Serialise the object conditions BEFORE anything is written: a
	// condition the store cannot persist then aborts with no trace instead
	// of leaving an rP row whose rOC rows are missing — which a reload
	// would reconstruct as a policy with fewer conditions than granted.
	rows, err := conditionRows(p)
	if err != nil {
		return err
	}

	// Log before apply: the AddPolicy record (the whole policy, id and
	// timestamp included) reaches the WAL and is synced before the cache
	// or the relations change, so a crash after the ack can never forget
	// the grant. The commit closure holds the log's serialisation lock
	// across the cache+relation apply below; the rP/rOC inserts inside are
	// not row-logged (LogsTable excludes them), so there is no reentry.
	if d := s.durability(); d != nil {
		commit, err := d.AppendPolicyInsert(p, nil)
		if err != nil {
			return err
		}
		defer commit()
	}

	return s.persist(p, rows)
}

// persist caches p, then writes its rOC rows and, last, its rP row through
// engine.Insert, so rP's triggers fire only for a policy whose every row
// has landed: the middleware takes the trigger as the announcement of a
// granted policy. A failed write rolls the half-commit back — the cached
// policy and every row that already landed go, so memory, rP and rOC agree
// the policy does not exist, and no trigger has fired for it.
func (s *Store) persist(p *Policy, ocRows []storage.Row) error {
	s.cache(p)
	for _, r := range ocRows {
		if err := s.db.Insert(TableOC, r); err != nil {
			return s.rollback(p, err)
		}
	}
	if err := s.db.Insert(TableP, policyRow(p)); err != nil {
		return s.rollback(p, err)
	}
	return nil
}

// rollback undoes a persist that failed with err: p leaves the cache and
// every rP and rOC row of it that landed is deleted.
func (s *Store) rollback(p *Policy, err error) error {
	s.uncache(p)
	if derr := s.deleteRows(p.ID); derr != nil {
		return fmt.Errorf("%w (rollback also failed: %v)", err, derr)
	}
	return err
}

// policyRow is p's rP row.
func policyRow(p *Policy) storage.Row {
	return storage.Row{
		storage.NewInt(p.ID), storage.NewInt(p.Owner), storage.NewString(p.Querier),
		storage.NewString(p.Relation), storage.NewString(p.Purpose),
		storage.NewString(string(p.Action)), storage.NewInt(p.InsertedAt),
	}
}

// BulkLoad persists many policies without firing triggers (initial load).
func (s *Store) BulkLoad(ps []*Policy) error {
	var pRows, ocRows []storage.Row
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return err
		}
		s.meta.Lock()
		p.ID = s.nextID
		s.nextID++
		s.clock++
		p.InsertedAt = s.clock
		s.meta.Unlock()
		pRows = append(pRows, policyRow(p))
		rows, err := conditionRows(p)
		if err != nil {
			return err
		}
		ocRows = append(ocRows, rows...)
		s.cache(p)
	}
	if err := s.db.BulkInsert(TableP, pRows); err != nil {
		return err
	}
	return s.db.BulkInsert(TableOC, ocRows)
}

// cache records a policy in the in-memory indexes, at its id's place in
// its name's list: concurrent Inserts can reach here out of id order.
func (s *Store) cache(p *Policy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byRel, ok := s.byQuerier[p.Querier]
	if !ok {
		byRel = make(map[string][]*Policy)
		s.byQuerier[p.Querier] = byRel
	}
	ps := byRel[p.Relation]
	i, _ := slices.BinarySearchFunc(ps, p.ID, func(q *Policy, id int64) int { return cmp.Compare(q.ID, id) })
	byRel[p.Relation] = slices.Insert(ps, i, p)
	s.byID[p.ID] = p
}

// uncache reverses cache: a failed persist, or a revocation.
func (s *Store) uncache(p *Policy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if byRel, ok := s.byQuerier[p.Querier]; ok {
		byRel[p.Relation] = removePolicy(byRel[p.Relation], p.ID)
	}
	delete(s.byID, p.ID)
}

// ocSeq issues rOC row ids. Atomic: stores of different databases, and
// concurrent Inserts into one, all draw from it.
var ocSeq atomic.Int64

// conditionRows serialises a policy's conditions (owner first) into rOC
// rows: ⟨id, policy_id, attr, op, val⟩ with val as SQL literal text, ranges
// split into two rows as in the paper's Table 5.
func conditionRows(p *Policy) ([]storage.Row, error) {
	ts, err := conditionTriples(p)
	if err != nil {
		return nil, err
	}
	rows := make([]storage.Row, len(ts))
	for i, c := range ts {
		rows[i] = storage.Row{
			storage.NewInt(ocSeq.Add(1)), storage.NewInt(p.ID),
			storage.NewString(c.Attr), storage.NewString(c.Op), storage.NewString(c.Val),
		}
	}
	return rows, nil
}

// conditionTriples is the textual serialisation behind conditionRows and
// the WAL's AddPolicy record: ⟨attr, op, val⟩ with val as SQL literal
// text, owner first, ranges split into two triples.
func conditionTriples(p *Policy) ([]ConditionText, error) {
	mk := func(attr, op, val string) ConditionText {
		return ConditionText{Attr: attr, Op: op, Val: val}
	}
	lit := func(v storage.Value) string { return sqlparser.PrintExpr(sqlparser.Lit(v)) }
	ts := []ConditionText{mk(OwnerAttr, "=", lit(storage.NewInt(p.Owner)))}
	for _, c := range p.Conditions {
		switch c.Kind {
		case CondCompare:
			ts = append(ts, mk(c.Attr, c.Op.String(), lit(c.Val)))
		case CondRange:
			ts = append(ts, mk(c.Attr, c.LoOp.String(), lit(c.Lo)))
			ts = append(ts, mk(c.Attr, c.HiOp.String(), lit(c.Hi)))
		case CondIn, CondNotIn:
			op := "IN"
			if c.Kind == CondNotIn {
				op = "NOT IN"
			}
			vals := make([]string, len(c.Vals))
			for i, v := range c.Vals {
				vals[i] = lit(v)
			}
			ts = append(ts, mk(c.Attr, op, "("+strings.Join(vals, ", ")+")"))
		case CondSubquery:
			ts = append(ts, mk(c.Attr, c.Op.String(), "("+c.Subquery+")"))
		default:
			return nil, fmt.Errorf("policy: cannot serialise condition kind %d", c.Kind)
		}
	}
	return ts, nil
}

// Revoke removes a policy from the store and its relations (§6: policies
// can be revoked at any time). The in-memory indexes shrink FIRST, then the
// rows are deleted: callers that cache guarded expressions invalidate those
// caches after Revoke returns (core.Middleware.RevokePolicy does), and any
// signature re-resolution that runs after the invalidation must already see
// the post-revocation set — the reverse order would let a stale set be
// re-validated as fresh.
func (s *Store) Revoke(id int64) (*Policy, error) {
	// Log before apply. The existence check runs inside the log's
	// serialisation lock (as the append's check closure), so a record is
	// only written for a policy that is still present — two racing revokes
	// of the same id serialise on the log, and the loser is rejected
	// before it can append.
	if d := s.durability(); d != nil {
		commit, err := d.AppendPolicyRevoke(id, func() error {
			if _, ok := s.ByID(id); !ok {
				return fmt.Errorf("policy: no policy %d to revoke", id)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		defer commit()
	}
	return s.applyRevoke(id)
}

// applyRevoke removes a policy from the cache and its persisted rows; the
// in-memory shrink happens first (see Revoke's ordering contract).
func (s *Store) applyRevoke(id int64) (*Policy, error) {
	s.mu.Lock()
	p, ok := s.byID[id]
	if ok {
		delete(s.byID, id)
		if byRel, ok := s.byQuerier[p.Querier]; ok {
			byRel[p.Relation] = removePolicy(byRel[p.Relation], id)
		}
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("policy: no policy %d to revoke", id)
	}

	if err := s.deleteRows(id); err != nil {
		return nil, err
	}
	return p, nil
}

// deleteRows removes every persisted rP and rOC row of one policy id
// (used by Revoke, and by Insert to roll back a partial persist), found
// through the rP.id and rOC.policy_id indexes NewStore builds, and vacuums
// the relations so that revoked policies do not accumulate as tombstones.
// Both relations are logged logically (AddPolicy/RevokePolicy records), so
// no log record names a row id the vacuum could renumber; rowsMu keeps the
// ids read here naming the same rows until they are deleted.
func (s *Store) deleteRows(id int64) error {
	s.rowsMu.Lock()
	defer s.rowsMu.Unlock()
	for _, at := range []struct{ table, col string }{{TableP, "id"}, {TableOC, "policy_id"}} {
		t := s.db.MustTable(at.table)
		rows, ok := t.Lookup(nil, at.col, storage.NewInt(id))
		if !ok {
			return fmt.Errorf("policy: %s has no index on %s", at.table, at.col)
		}
		for _, rowID := range rows {
			if err := t.Delete(rowID); err != nil {
				return err
			}
		}
		t.Vacuum()
	}
	return nil
}

// removePolicy copies ps without id.
func removePolicy(ps []*Policy, id int64) []*Policy {
	out := make([]*Policy, 0, len(ps))
	for _, p := range ps {
		if p.ID != id {
			out = append(out, p)
		}
	}
	return out
}

// loadFromTables reconstructs the cache from rP/rOC.
func (s *Store) loadFromTables() error {
	pTab := s.db.MustTable(TableP)
	ocTab := s.db.MustTable(TableOC)

	conds := make(map[int64][]storage.Row)
	ocTab.Scan(func(_ storage.RowID, r storage.Row) bool {
		pid := r[1].I
		conds[pid] = append(conds[pid], r)
		return true
	})

	var firstErr error
	pTab.Scan(func(_ storage.RowID, r storage.Row) bool {
		p := &Policy{
			ID: r[0].I, Owner: r[1].I, Querier: r[2].S, Relation: r[3].S,
			Purpose: r[4].S, Action: Action(r[5].S), InsertedAt: r[6].I,
		}
		cs, err := parseConditions(conds[p.ID])
		if err != nil {
			firstErr = fmt.Errorf("policy %d: %w", p.ID, err)
			return false
		}
		p.Conditions = cs
		s.cache(p)
		s.meta.Lock()
		if p.ID >= s.nextID {
			s.nextID = p.ID + 1
		}
		if p.InsertedAt > s.clock {
			s.clock = p.InsertedAt
		}
		s.meta.Unlock()
		return true
	})
	return firstErr
}

// parseConditions rebuilds ObjectConditions from rOC rows, re-pairing
// adjacent ≥/≤ rows on the same attribute into ranges and dropping the
// owner row (implied by rP.owner).
func parseConditions(rows []storage.Row) ([]ObjectCondition, error) {
	ts := make([]ConditionText, len(rows))
	for i, r := range rows {
		ts[i] = ConditionText{Attr: r[2].S, Op: r[3].S, Val: r[4].S}
	}
	return parseConditionTriples(ts)
}

// parseConditionTriples is the inverse of conditionTriples.
func parseConditionTriples(rows []ConditionText) ([]ObjectCondition, error) {
	var out []ObjectCondition
	for i := 0; i < len(rows); i++ {
		attr, opText, valText := rows[i].Attr, rows[i].Op, rows[i].Val
		if attr == OwnerAttr && opText == "=" {
			continue
		}
		switch opText {
		case "IN", "NOT IN":
			e, err := sqlparser.ParseExpr("x " + opText + " " + valText)
			if err != nil {
				return nil, fmt.Errorf("bad IN list %q: %w", valText, err)
			}
			in, ok := e.(*sqlparser.InExpr)
			if !ok {
				return nil, fmt.Errorf("bad IN list %q", valText)
			}
			var vals []storage.Value
			for _, item := range in.List {
				l, ok := item.(*sqlparser.Literal)
				if !ok {
					return nil, fmt.Errorf("non-literal IN member in %q", valText)
				}
				vals = append(vals, l.Val)
			}
			kind := CondIn
			if opText == "NOT IN" {
				kind = CondNotIn
			}
			out = append(out, ObjectCondition{Attr: attr, Kind: kind, Vals: vals})
			continue
		}
		op, err := parseCmpOp(opText)
		if err != nil {
			return nil, err
		}
		val, err := sqlparser.ParseExpr(valText)
		if err != nil {
			return nil, fmt.Errorf("bad condition value %q: %w", valText, err)
		}
		switch v := val.(type) {
		case *sqlparser.SubqueryExpr:
			out = append(out, ObjectCondition{Attr: attr, Kind: CondSubquery, Op: op,
				Subquery: sqlparser.Print(v.Select)})
		case *sqlparser.Literal:
			// Re-pair a lower bound with an immediately following upper
			// bound on the same attribute into a range condition.
			if (op == sqlparser.CmpGe || op == sqlparser.CmpGt) && i+1 < len(rows) && rows[i+1].Attr == attr {
				nextOp, err := parseCmpOp(rows[i+1].Op)
				if err == nil && (nextOp == sqlparser.CmpLe || nextOp == sqlparser.CmpLt) {
					hiVal, err := sqlparser.ParseExpr(rows[i+1].Val)
					if hiLit, ok := hiVal.(*sqlparser.Literal); err == nil && ok {
						out = append(out, ObjectCondition{Attr: attr, Kind: CondRange,
							Lo: v.Val, LoOp: op, Hi: hiLit.Val, HiOp: nextOp})
						i++
						continue
					}
				}
			}
			out = append(out, ObjectCondition{Attr: attr, Kind: CondCompare, Op: op, Val: v.Val})
		default:
			return nil, fmt.Errorf("unsupported condition value %q", valText)
		}
	}
	return out, nil
}

func parseCmpOp(s string) (sqlparser.CmpOp, error) {
	switch s {
	case "=":
		return sqlparser.CmpEq, nil
	case "!=", "<>":
		return sqlparser.CmpNe, nil
	case "<":
		return sqlparser.CmpLt, nil
	case "<=":
		return sqlparser.CmpLe, nil
	case ">":
		return sqlparser.CmpGt, nil
	case ">=":
		return sqlparser.CmpGe, nil
	}
	return 0, fmt.Errorf("policy: unknown comparison operator %q", s)
}
