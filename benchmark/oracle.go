package main

import (
	"context"
	"fmt"
	"sync"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

// oracle is the deny-equals-delete reading of the three static workloads:
// the rows a querier may see from a row-checkable query are exactly the
// rows of the unprotected query that some applicable policy allows. It
// evaluates the policies directly (policy.CompileSet over raw rows), never
// through the rewrite it checks.
type oracle struct {
	e        *env
	ownerCol int
	sets     []*policy.CompiledSet // per querier
	raw      []rawResult           // per query

	memo *expectMemo
}

// expectMemo caches expected sets; rebound oracles share it.
type expectMemo struct {
	mu sync.Mutex
	m  map[[2]int32]expect
}

// rawResult is a query's result with no policy applied.
type rawResult struct {
	rows   []storage.Row
	hashes []uint64
	byHash map[uint64]int // hash → index into rows
}

// expect is the row set a (querier, query) pair must return, as a count and
// the sum of its row hashes.
type expect struct {
	count int
	sum   uint64
}

func newOracle(e *env) (*oracle, error) {
	o := &oracle{
		e:        e,
		ownerCol: e.schema.ColumnIndex(policy.OwnerAttr),
		sets:     make([]*policy.CompiledSet, len(e.queriers)),
		raw:      make([]rawResult, len(e.queries)),
		memo:     &expectMemo{m: make(map[[2]int32]expect)},
	}
	for i, name := range e.queriers {
		qm := policy.Metadata{Querier: name, Purpose: e.purpose}
		cs, err := policy.CompileSet(policy.Filter(e.policies, qm, e.relation, e.groups), e.schema)
		if err != nil {
			return nil, err
		}
		o.sets[i] = cs
	}
	for _, name := range e.deny {
		qm := policy.Metadata{Querier: name, Purpose: e.purpose}
		if ps := policy.Filter(e.policies, qm, e.relation, e.groups); len(ps) > 0 {
			return nil, fmt.Errorf("default-deny querier %s holds %d policies", name, len(ps))
		}
	}
	for i, q := range e.queries {
		if q.check == checkNone {
			continue
		}
		res, err := e.m.DB().QueryCtx(context.Background(), q.rawSQL)
		if err != nil {
			return nil, fmt.Errorf("raw %s: %w", q.name, err)
		}
		rr := rawResult{rows: res.Rows, hashes: make([]uint64, len(res.Rows)), byHash: make(map[uint64]int, len(res.Rows))}
		for j, r := range res.Rows {
			rr.hashes[j] = hashRow(r)
			rr.byHash[rr.hashes[j]] = j
		}
		o.raw[i] = rr
	}
	return o, nil
}

// rebind returns the oracle for another build of the same workload: the
// corpus seed is the same, so the rows, policies and expected sets are too.
func (o *oracle) rebind(e *env) *oracle {
	b := *o
	b.e = e
	return &b
}

func (o *oracle) allowed(querier int32, row storage.Row) bool {
	ok, _, err := o.sets[querier].EvalOwnerFirstMatch(row[o.ownerCol].I, row, nil)
	return ok && err == nil
}

// expected folds the raw rows of query that querier's policies allow.
func (o *oracle) expected(querier, query int32) expect {
	key := [2]int32{querier, query}
	o.memo.mu.Lock()
	ex, ok := o.memo.m[key]
	o.memo.mu.Unlock()
	if ok {
		return ex
	}
	rr := &o.raw[query]
	for j, r := range rr.rows {
		if o.allowed(querier, r) {
			ex.count++
			ex.sum += rr.hashes[j]
		}
	}
	o.memo.mu.Lock()
	o.memo.m[key] = ex
	o.memo.mu.Unlock()
	return ex
}

// rowsOK checks rows one by one: each must come from the unprotected result
// and be allowed. Stream ops and LIMIT queries, which return part of the
// row set, are checked this way.
func (o *oracle) rowsOK(querier, query int32, rows []storage.Row) bool {
	rr := &o.raw[query]
	for _, r := range rows {
		j, ok := rr.byHash[hashRow(r)]
		if !ok || !o.allowed(querier, rr.rows[j]) {
			return false
		}
	}
	return true
}

// check is the part of verification done right after an op, while its rows
// are at hand: partial results (stream ops, LIMIT queries) row by row, full
// results hashed into rec.sum. It looks up no expected set, so it costs the
// other client's timed op almost nothing.
func (o *oracle) check(r *rec, rows []storage.Row) {
	q := &o.e.queries[r.query]
	if q.check == checkNone {
		return
	}
	if r.kind == kStream || q.check == checkSubset {
		r.bad = !o.rowsOK(r.querier, r.query, rows)
		return
	}
	for _, row := range rows {
		r.sum += hashRow(row)
	}
}

// settle finishes verification after the measured part: a full result must
// match the expected set's count and hash sum, a partial one must be as long
// as the expected set allows.
func (o *oracle) settle(r *rec) {
	q := &o.e.queries[r.query]
	if q.check == checkNone || r.bad {
		return
	}
	ex := o.expected(r.querier, r.query)
	switch {
	case r.kind == kStream || q.check == checkSubset:
		want := ex.count
		if q.check == checkSubset && want > q.limit {
			want = q.limit
		}
		if r.kind == kStream && want > streamLimit {
			want = streamLimit
		}
		r.bad = int(r.rows) != want
	default:
		r.bad = int(r.rows) != ex.count || r.sum != ex.sum
	}
}
