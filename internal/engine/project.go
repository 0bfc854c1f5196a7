package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// keyedRow is an output row of a grouped or ordered core with its ORDER BY
// keys and its place in the order the rows were produced.
type keyedRow struct {
	row  storage.Row
	keys []storage.Value
	seq  int
}

// projector is a grouped or ordered core's projection: GROUP BY and
// aggregation, the select list, the ORDER BY keys and the sort, over the
// core's input read as a stream. It holds what its output needs and no
// more:
//
//   - a grouped core folds each row into its group's accumulators and keeps
//     only the group's first row, which the select list's and HAVING's plain
//     columns read;
//   - an ordered core with a LIMIT and no DISTINCT keeps only the first
//     offset+limit rows in order, ties in arrival order, as a heap whose
//     root is the last of them;
//   - an ordered DISTINCT core dedupes as it goes, each row keeping its
//     first occurrence's keys.
//
// Rows are bound one at a time to the projector's one env.
type projector struct {
	ex   *executor
	bc   *boundCore
	core *sqlparser.SelectCore
	ev   evaluator
	en   env

	keep int // > 0: the most rows the core's tail reads
	rows []keyedRow
	seen rowSet // an ordered DISTINCT core's output rows so far
	seq  int
	out  storage.Row     // the row at hand's select list
	keys []storage.Value // the row at hand's ORDER BY keys
	vals []storage.Value // the chunk kept rows and keys are carved from

	groups map[string]*group // by the GROUP BY keys' encoding
	order  []*group          // in the order their first rows arrived
	kb     []byte            // the row at hand's group key or DISTINCT argument
}

func newProjector(ex *executor, bc *boundCore, sc *scope, outer *env) *projector {
	core := bc.core
	p := &projector{
		ex:   ex,
		bc:   bc,
		core: core,
		ev:   evaluator{ex: ex, scope: sc, b: bc.b},
		en:   env{schema: bc.schema, outer: outer},
		out:  make(storage.Row, len(core.Items)),
		keys: make([]storage.Value, len(core.OrderBy)),
	}
	if n := core.Offset + core.Limit; len(core.OrderBy) > 0 && !core.Distinct && core.Limit > 0 && n > 0 {
		p.keep = int(n)
	}
	return p
}

// run reads src to its end through the projector and returns the rows kept,
// in output order.
func (p *projector) run(src rowIter) ([]keyedRow, error) {
	for {
		row, err := src.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		if err := p.ex.checkCtx(); err != nil {
			return nil, err
		}
		p.en.row = row
		if p.bc.grouped {
			err = p.fold()
		} else {
			err = p.emit()
		}
		if err != nil {
			return nil, err
		}
	}
	if p.bc.grouped {
		if err := p.finishGroups(); err != nil {
			return nil, err
		}
	}
	p.sort()
	return p.rows, nil
}

// emit evaluates the select list and the ORDER BY keys over the row bound to
// en (a group's first row, with its aggregates' values) and adds the result.
// An ORDER BY key the bind pass resolved to a select-list alias (ORDER BY
// visits DESC) reads the output row.
func (p *projector) emit() error {
	out := p.en.row
	if !p.core.Star {
		for i, it := range p.core.Items {
			v, err := p.ev.eval(it.Expr, &p.en)
			if err != nil {
				return err
			}
			p.out[i] = v
		}
		out = p.out
	}
	for i, o := range p.core.OrderBy {
		if j := p.bc.order[i]; j >= 0 {
			p.keys[i] = out[j]
			continue
		}
		v, err := p.ev.eval(o.Expr, &p.en)
		if err != nil {
			return err
		}
		p.keys[i] = v
	}
	p.add(out)
	return nil
}

// add keeps out with the keys at hand if the core's tail may read it: out is
// the select list's scratch row, copied when kept, or a source row (SELECT
// *), kept as it is.
func (p *projector) add(out storage.Row) {
	if p.core.Distinct && len(p.core.OrderBy) > 0 && !p.seen.add(out) {
		return
	}
	p.seq++
	if p.keep > 0 && len(p.rows) == p.keep {
		last := &p.rows[0]
		if p.compare(p.keys, last.keys) >= 0 {
			return // after every kept row: a tie arrived later
		}
		p.set(last, out)
		p.down(0)
		return
	}
	w := len(p.out)
	if p.core.Star {
		w = 0
	}
	buf := p.take(w + len(p.keys))
	kr := keyedRow{row: buf[:w:w], keys: buf[w:]}
	p.set(&kr, out)
	p.rows = append(p.rows, kr)
	if p.keep > 0 {
		p.up(len(p.rows) - 1)
	}
}

// set fills kr with out and the keys at hand, in kr's own storage.
func (p *projector) set(kr *keyedRow, out storage.Row) {
	if p.core.Star {
		kr.row = out
	} else {
		copy(kr.row, out)
	}
	copy(kr.keys, p.keys)
	kr.seq = p.seq
}

// take carves n values from the current chunk, allocating the next chunk
// for as many rows as are kept so far, between 8 and 512, and no more than
// the tail reads.
func (p *projector) take(n int) []storage.Value {
	if len(p.vals) < n {
		rows := min(max(len(p.rows), 8), 512)
		if p.keep > 0 {
			rows = min(rows, p.keep)
		}
		p.vals = make([]storage.Value, rows*n)
	}
	v := p.vals[:n:n]
	p.vals = p.vals[n:]
	return v
}

// compare orders two rows' ORDER BY keys: NULLs (and incomparables) first on
// ASC, last on DESC.
func (p *projector) compare(ka, kb []storage.Value) int {
	for i, o := range p.core.OrderBy {
		c, ok := storage.Compare(ka[i], kb[i])
		if !ok {
			an, bn := ka[i].IsNull(), kb[i].IsNull()
			if an == bn {
				continue
			}
			if an != o.Desc {
				return -1
			}
			return 1
		}
		if c == 0 {
			continue
		}
		if o.Desc {
			return -c
		}
		return c
	}
	return 0
}

// after reports whether kept row i comes after kept row j in output order.
func (p *projector) after(i, j int) bool {
	if c := p.compare(p.rows[i].keys, p.rows[j].keys); c != 0 {
		return c > 0
	}
	return p.rows[i].seq > p.rows[j].seq
}

// up and down restore the heap of kept rows, the last in output order at
// the root, after row i was added or replaced.
func (p *projector) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.after(i, parent) {
			return
		}
		p.rows[i], p.rows[parent] = p.rows[parent], p.rows[i]
		i = parent
	}
}

func (p *projector) down(i int) {
	for {
		last := i
		if l := 2*i + 1; l < len(p.rows) && p.after(l, last) {
			last = l
		}
		if r := 2*i + 2; r < len(p.rows) && p.after(r, last) {
			last = r
		}
		if last == i {
			return
		}
		p.rows[i], p.rows[last] = p.rows[last], p.rows[i]
		i = last
	}
}

// sort puts the kept rows in output order: by their keys, stably, or by
// their keys and then arrival for the heap, which arrival no longer orders.
func (p *projector) sort() {
	switch {
	case len(p.core.OrderBy) == 0:
	case p.keep > 0:
		slices.SortFunc(p.rows, func(a, b keyedRow) int {
			if c := p.compare(a.keys, b.keys); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	default:
		sort.SliceStable(p.rows, func(a, b int) bool { return p.compare(p.rows[a].keys, p.rows[b].keys) < 0 })
	}
}

// group is one GROUP BY bucket: its first row, its row count (count(*)) and
// one accumulator per aggregate of the core.
type group struct {
	rep  storage.Row
	n    int64
	accs []aggAcc
}

// aggAcc is an aggregate's running state over one group's non-NULL
// arguments: DISTINCT ones only, once each, when the call says DISTINCT.
type aggAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	anyFloat bool
	lo, hi   storage.Value
	distinct map[string]struct{}
}

// fold adds the row bound to en to its group.
func (p *projector) fold() error {
	g, err := p.group()
	if err != nil {
		return err
	}
	g.n++
	for i, fc := range p.bc.aggs {
		if fc.Star || len(fc.Args) != 1 {
			continue
		}
		v, err := p.ev.eval(fc.Args[0], &p.en)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		a := &g.accs[i]
		if fc.Distinct {
			p.kb = appendValue(p.kb[:0], v)
			if _, dup := a.distinct[string(p.kb)]; dup {
				continue
			}
			if a.distinct == nil {
				a.distinct = make(map[string]struct{})
			}
			a.distinct[string(p.kb)] = struct{}{}
		}
		a.count++
		if v.K == storage.KindFloat {
			a.anyFloat = true
			a.sumF += v.F
		} else {
			a.sumI += v.I
			a.sumF += float64(v.I)
		}
		if a.lo.IsNull() || storage.Less(v, a.lo) {
			a.lo = v
		}
		if a.hi.IsNull() || storage.Less(a.hi, v) {
			a.hi = v
		}
	}
	return nil
}

// group returns the group of the row bound to en, started with it when it
// is the group's first: the one group when the core has no GROUP BY. The
// key is encoded into kb, and copied only for a new group.
func (p *projector) group() (*group, error) {
	if len(p.core.GroupBy) == 0 {
		if len(p.order) == 0 {
			p.newGroup()
		}
		return p.order[0], nil
	}
	p.kb = p.kb[:0]
	for _, e := range p.core.GroupBy {
		v, err := p.ev.eval(e, &p.en)
		if err != nil {
			return nil, err
		}
		p.kb = appendValue(p.kb, v)
	}
	if g, ok := p.groups[string(p.kb)]; ok {
		return g, nil
	}
	if p.groups == nil {
		p.groups = make(map[string]*group)
	}
	g := p.newGroup()
	p.groups[string(p.kb)] = g
	return g, nil
}

func (p *projector) newGroup() *group {
	g := &group{rep: p.en.row, accs: make([]aggAcc, len(p.bc.aggs))}
	p.order = append(p.order, g)
	return g
}

// finishGroups emits each group HAVING keeps, in the order the groups
// started, with its aggregates' values; a core without GROUP BY has its one
// group even over no rows, whose plain columns read NULL.
func (p *projector) finishGroups() error {
	if len(p.order) == 0 && len(p.core.GroupBy) == 0 {
		p.en.row = make(storage.Row, len(p.en.schema.Cols))
		p.newGroup()
	}
	vals := make(map[sqlparser.Expr]storage.Value, len(p.bc.aggs))
	p.ev.aggValues = vals
	for _, g := range p.order {
		for i, fc := range p.bc.aggs {
			v, err := g.accs[i].value(fc, g.n)
			if err != nil {
				return err
			}
			vals[fc] = v
		}
		p.en.row = g.rep
		if p.core.Having != nil {
			hv, err := p.ev.eval(p.core.Having, &p.en)
			if err != nil {
				return err
			}
			if t, _ := truth(hv); !t {
				continue
			}
		}
		if err := p.emit(); err != nil {
			return err
		}
	}
	p.groups, p.order = nil, nil
	return nil
}

// value is fc's result over a group of rows rows, a's arguments folded in.
func (a *aggAcc) value(fc *sqlparser.FuncCall, rows int64) (storage.Value, error) {
	if fc.Star {
		return storage.NewInt(rows), nil
	}
	if len(fc.Args) != 1 {
		return storage.Null, fmt.Errorf("engine: aggregate %s expects one argument", fc.Name)
	}
	switch strings.ToLower(fc.Name) {
	case "count":
		return storage.NewInt(a.count), nil
	case "sum":
		switch {
		case a.count == 0:
			return storage.Null, nil
		case a.anyFloat:
			return storage.NewFloat(a.sumF), nil
		}
		return storage.NewInt(a.sumI), nil
	case "avg":
		if a.count == 0 {
			return storage.Null, nil
		}
		return storage.NewFloat(a.sumF / float64(a.count)), nil
	case "min":
		return a.lo, nil
	case "max":
		return a.hi, nil
	}
	return storage.Null, fmt.Errorf("engine: unknown aggregate %q", fc.Name)
}
