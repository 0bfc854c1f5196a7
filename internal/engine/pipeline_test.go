package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// The row pipeline against a reference. pipeGen draws a statement as a tree
// (pipeStmt) that renders to SQL and that the reference below evaluates in
// plain Go: FROM entries joined as nested loops in FROM order, filtered by
// every condition under SQL's three-valued logic, projected, deduped keeping
// first occurrences, stably sorted with NULLs first ascending, cut by
// OFFSET and LIMIT, and set operations applied left to right. That is the
// order the executor defines — scans in heap order, a join in its probe
// side's order and then its build side's — so results compare row for row,
// in order. The tables hold NULLs and duplicate rows and have no index, so
// every scan is sequential. A top-level core may be grouped: GROUP BY keys,
// aggregates over INT and FLOAT columns, HAVING, and ORDER BY an aggregate's
// alias, whose groups come in the order their first rows arrive.
//
// The indexed variant runs the same generator over the same tables, built
// with an index on x, two rows to a segment and fresh statistics, on both
// dialects, so scans go through index fetches, bitmap OR unions and zone-map
// pruning. It also draws IN lists, BETWEEN and two-literal ORs over one
// entry, which those paths turn into probes and refutations, and no LIMIT or
// OFFSET: an index fetch returns rows in key order, so results compare as
// multisets.

// pipeTables are the test's tables, each with columns x and y.
var pipeTables = map[string][][2]int{
	"a": {{0, 1}, {1, -1}, {2, 2}, {0, 1}, {-1, 0}, {1, 2}},
	"b": {{1, 0}, {-1, -1}, {2, 1}, {1, 0}, {0, 2}},
	"c": {{2, 2}, {0, -1}, {1, 1}, {2, 2}},
	"f": {{1, 0}, {1, 1}, {-1, 2}, {2, -1}, {1, 0}, {0, 1}, {2, 2}},
}

// pipeFloatY names the tables whose y column is FLOAT: cell v holds v/2, so
// cells 0 and 2 hold 0.0 and 1.0, which equal the INT cells 0 and 1 — a
// join, a DISTINCT, a set operation or a GROUP BY over both kinds must find
// them equal, as = does — and cell 1 holds 0.5, which no INT equals.
var pipeFloatY = map[string]bool{"f": true}

// pipeValue maps a table cell to a value: -1 is NULL.
func pipeValue(v int) storage.Value {
	if v < 0 {
		return storage.Null
	}
	return storage.NewInt(int64(v))
}

// pipeRow is the row table name stores for cells r.
func pipeRow(name string, r [2]int) storage.Row {
	row := storage.Row{pipeValue(r[0]), pipeValue(r[1])}
	if pipeFloatY[name] && r[1] >= 0 {
		row[1] = storage.NewFloat(float64(r[1]) / 2)
	}
	return row
}

func buildPipeDB(tb testing.TB) *DB { return newPipeDB(tb, MySQL(), false) }

// newPipeDB builds the tables on dialect d, indexed for the indexed
// variant.
func newPipeDB(tb testing.TB, d Dialect, indexed bool) *DB {
	tb.Helper()
	db := New(d)
	db.ScanWorkers = 1
	for name, cells := range pipeTables {
		yKind := storage.KindInt
		if pipeFloatY[name] {
			yKind = storage.KindFloat
		}
		schema := storage.MustSchema(
			storage.Column{Name: "x", Type: storage.KindInt},
			storage.Column{Name: "y", Type: yKind},
		)
		t, err := db.CreateTable(name, schema)
		if err != nil {
			tb.Fatal(err)
		}
		if indexed {
			t.SetSegmentSize(2)
		}
		var rows []storage.Row
		for _, r := range cells {
			rows = append(rows, pipeRow(name, r))
		}
		if err := db.BulkInsert(name, rows); err != nil {
			tb.Fatal(err)
		}
		if indexed {
			if err := db.CreateIndex(name, "x"); err != nil {
				tb.Fatal(err)
			}
			if err := db.Analyze(name); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

// pipeCol is column col (0: x, 1: y) of FROM entry src, named t<src>.
type pipeCol struct{ src, col int }

func (c pipeCol) String() string { return fmt.Sprintf("t%d.%s", c.src, [2]string{"x", "y"}[c.col]) }

// pipeCond is `l op r`, r a column or, when rc is nil, the literal rv (-1:
// NULL, and then op is IS NULL or, with not, IS NOT NULL); `l IN (list)`;
// `l BETWEEN list[0] AND list[1]`. When or is set, the condition is the
// disjunction of that and *or.
type pipeCond struct {
	l    pipeCol
	op   string // "=", "!=", "<", "IS NULL", "IN", "BETWEEN"
	rc   *pipeCol
	rv   int
	not  bool
	list []int
	or   *pipeCond
}

func (c pipeCond) String() string {
	switch {
	case c.or != nil:
		l := c
		l.or = nil
		return fmt.Sprintf("(%s OR %s)", l, *c.or)
	case c.op == "IN":
		var b strings.Builder
		for i, v := range c.list {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprint(&b, v)
		}
		return fmt.Sprintf("%s IN (%s)", c.l, b.String())
	case c.op == "BETWEEN":
		return fmt.Sprintf("%s BETWEEN %d AND %d", c.l, c.list[0], c.list[1])
	case c.op == "IS NULL" && c.not:
		return c.l.String() + " IS NOT NULL"
	case c.op == "IS NULL":
		return c.l.String() + " IS NULL"
	case c.rc != nil:
		return fmt.Sprintf("%s %s %s", c.l, c.op, *c.rc)
	}
	return fmt.Sprintf("%s %s %d", c.l, c.op, c.rv)
}

// pipeOrder is an ORDER BY key: a column or, when alias is set, the output
// column of that name.
type pipeOrder struct {
	key   pipeCol
	alias string
	desc  bool
}

func (o pipeOrder) String() string {
	k := o.alias
	if k == "" {
		k = o.key.String()
	}
	if o.desc {
		return k + " DESC"
	}
	return k
}

// pipeAgg is an aggregate call: fn over arg, or count(*) when star.
type pipeAgg struct {
	fn       string // "count", "sum", "min", "max" or "avg"
	arg      pipeCol
	star     bool
	distinct bool
}

func (a *pipeAgg) String() string {
	switch {
	case a.star:
		return "count(*)"
	case a.distinct:
		return fmt.Sprintf("%s(DISTINCT %s)", a.fn, a.arg)
	}
	return fmt.Sprintf("%s(%s)", a.fn, a.arg)
}

// pipeHaving is `agg op rv`.
type pipeHaving struct {
	agg *pipeAgg
	op  string // "=", "!=", "<", ">"
	rv  int
}

// pipeCore is one select core. A FROM entry is a base table or, when its
// sub is set, a derived table whose two columns are named x and y. A grouped
// core's item i is aggs[i] or, when that is nil, items[i], one of its GROUP
// BY keys.
type pipeCore struct {
	tables   []string
	subs     []*pipeStmt
	star     bool
	items    []pipeCol // two, aliased x and y
	distinct bool
	conds    []pipeCond
	order    []pipeOrder
	limit    int // -1: none
	offset   int

	grouped bool
	groupBy []pipeCol
	aggs    [2]*pipeAgg
	having  *pipeHaving
}

type pipeStmt struct {
	cores []*pipeCore
	ops   []string // between cores: "UNION", "UNION ALL" or "MINUS"
}

func (s *pipeStmt) String() string {
	var b strings.Builder
	for i, c := range s.cores {
		if i > 0 {
			b.WriteString(" " + s.ops[i-1] + " ")
		}
		b.WriteString(c.String())
	}
	return b.String()
}

func (c *pipeCore) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if c.distinct {
		b.WriteString("DISTINCT ")
	}
	switch {
	case c.star:
		b.WriteString("*")
	case c.grouped:
		for i, alias := range []string{"x", "y"} {
			if i > 0 {
				b.WriteString(", ")
			}
			if a := c.aggs[i]; a != nil {
				fmt.Fprintf(&b, "%s AS %s", a, alias)
			} else {
				fmt.Fprintf(&b, "%s AS %s", c.items[i], alias)
			}
		}
	default:
		fmt.Fprintf(&b, "%s AS x, %s AS y", c.items[0], c.items[1])
	}
	b.WriteString(" FROM ")
	for i := range c.tables {
		if i > 0 {
			b.WriteString(", ")
		}
		if c.subs[i] != nil {
			fmt.Fprintf(&b, "(%s) AS t%d", c.subs[i], i)
		} else {
			fmt.Fprintf(&b, "%s AS t%d", c.tables[i], i)
		}
	}
	for i, cd := range c.conds {
		b.WriteString([2]string{" WHERE ", " AND "}[min(i, 1)])
		b.WriteString(cd.String())
	}
	for i, k := range c.groupBy {
		b.WriteString([2]string{" GROUP BY ", ", "}[min(i, 1)])
		b.WriteString(k.String())
	}
	if h := c.having; h != nil {
		fmt.Fprintf(&b, " HAVING %s %s %d", h.agg, h.op, h.rv)
	}
	for i, o := range c.order {
		b.WriteString([2]string{" ORDER BY ", ", "}[min(i, 1)])
		b.WriteString(o.String())
	}
	if c.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", c.limit)
		if c.offset > 0 {
			fmt.Fprintf(&b, " OFFSET %d", c.offset)
		}
	}
	return b.String()
}

// pipeGen draws statements from r: for the indexed variant when indexed is
// set.
type pipeGen struct {
	r       *rand.Rand
	indexed bool
}

// stmt draws a statement of two columns: a core, or at depth 0 and 1 a
// chain of two to four cores joined by set operations. A top-level statement
// of one core is grouped half the time.
func (g pipeGen) stmt(depth int, top bool) *pipeStmt {
	s := &pipeStmt{cores: []*pipeCore{g.core(depth, top && g.r.Intn(2) == 0)}}
	if depth < 2 && g.r.Intn(3) == 0 {
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			s.ops = append(s.ops, []string{"UNION", "UNION ALL", "MINUS"}[g.r.Intn(3)])
			s.cores = append(s.cores, g.core(depth, false))
		}
		for _, c := range s.cores {
			c.order, c.limit, c.offset = nil, -1, 0 // a set operation's arms are plain
		}
	}
	if top && len(s.cores) == 1 && g.r.Intn(2) == 0 {
		g.group(s.cores[0])
	}
	return s
}

// group makes c a grouped core: zero to two GROUP BY keys, each item an
// aggregate or a key, an optional HAVING, and a tail ordered by the items'
// aliases or the keys.
func (g pipeGen) group(c *pipeCore) {
	n := len(c.tables)
	col := func() pipeCol { return pipeCol{g.r.Intn(n), g.r.Intn(2)} }
	agg := func() *pipeAgg {
		switch k := g.r.Intn(7); k {
		case 0:
			return &pipeAgg{fn: "count", star: true}
		case 1:
			return &pipeAgg{fn: "count", arg: col(), distinct: true}
		default:
			return &pipeAgg{fn: []string{"count", "sum", "min", "max", "avg"}[k-2], arg: col()}
		}
	}
	c.grouped, c.star = true, false
	for k := g.r.Intn(3); k > 0; k-- {
		c.groupBy = append(c.groupBy, col())
	}
	c.items = make([]pipeCol, 2)
	for i := range c.items {
		if len(c.groupBy) > 0 && g.r.Intn(3) == 0 {
			c.items[i] = c.groupBy[g.r.Intn(len(c.groupBy))]
		} else {
			c.aggs[i] = agg()
		}
	}
	if g.r.Intn(3) == 0 {
		c.having = &pipeHaving{agg: agg(), op: []string{"=", "!=", "<", ">"}[g.r.Intn(4)], rv: g.r.Intn(4)}
	}
	c.order, c.limit, c.offset = nil, -1, 0
	for k := g.r.Intn(3); k > 0; k-- {
		o := pipeOrder{alias: []string{"x", "y"}[g.r.Intn(2)], desc: g.r.Intn(2) == 0}
		if len(c.groupBy) > 0 && g.r.Intn(3) == 0 {
			o.key, o.alias = c.groupBy[g.r.Intn(len(c.groupBy))], ""
		}
		c.order = append(c.order, o)
	}
	if !g.indexed && g.r.Intn(2) == 0 {
		c.limit, c.offset = 1+g.r.Intn(3), g.r.Intn(3)
	}
}

// core draws a core over one to three FROM entries, derived ones only while
// depth allows; tail adds ORDER BY, LIMIT and OFFSET.
func (g pipeGen) core(depth int, tail bool) *pipeCore {
	c := &pipeCore{limit: -1}
	n := 1 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		var sub *pipeStmt
		if depth < 2 && g.r.Intn(4) == 0 {
			sub = g.stmt(depth+1, false)
		}
		c.tables = append(c.tables, []string{"a", "b", "c", "f"}[g.r.Intn(4)])
		c.subs = append(c.subs, sub)
	}
	col := func() pipeCol { return pipeCol{g.r.Intn(n), g.r.Intn(2)} }
	c.star = n == 1 && g.r.Intn(3) == 0
	if !c.star {
		c.items = []pipeCol{col(), col()}
	}
	c.distinct = g.r.Intn(3) == 0
	for i := 1; i < n; i++ { // a join condition for most joins, equi or not
		if g.r.Intn(4) > 0 {
			rc := pipeCol{g.r.Intn(i), g.r.Intn(2)}
			c.conds = append(c.conds, pipeCond{l: pipeCol{i, g.r.Intn(2)}, op: []string{"=", "=", "!=", "<"}[g.r.Intn(4)], rc: &rc})
		}
	}
	shapes := 3
	if g.indexed {
		shapes = 6
	}
	for k := g.r.Intn(3); k > 0; k-- {
		switch cd := (pipeCond{l: col()}); g.r.Intn(shapes) {
		case 0:
			cd.op, cd.not = "IS NULL", g.r.Intn(2) == 0
			c.conds = append(c.conds, cd)
		case 3:
			cd.op = "IN"
			for m := 1 + g.r.Intn(3); m > 0; m-- {
				cd.list = append(cd.list, g.r.Intn(3))
			}
			c.conds = append(c.conds, cd)
		case 4:
			lo := g.r.Intn(3)
			cd.op, cd.list = "BETWEEN", []int{lo, lo + g.r.Intn(2)}
			c.conds = append(c.conds, cd)
		case 5:
			or := pipeCond{l: pipeCol{cd.l.src, g.r.Intn(2)}, op: []string{"=", "<"}[g.r.Intn(2)], rv: g.r.Intn(3)}
			cd.op, cd.rv, cd.or = []string{"=", "<"}[g.r.Intn(2)], g.r.Intn(3), &or
			c.conds = append(c.conds, cd)
		default:
			cd.op, cd.rv = []string{"=", "!=", "<"}[g.r.Intn(3)], g.r.Intn(3)
			c.conds = append(c.conds, cd)
		}
	}
	if tail {
		for k := g.r.Intn(3); k > 0; k-- {
			c.order = append(c.order, pipeOrder{key: col(), desc: g.r.Intn(2) == 0})
		}
		if !g.indexed && g.r.Intn(2) == 0 {
			c.limit = g.r.Intn(6)
			c.offset = g.r.Intn(3)
		}
	}
	return c
}

// refStmt evaluates s by the reference semantics.
func refStmt(s *pipeStmt) []storage.Row {
	out := refCore(s.cores[0])
	for i, op := range s.ops {
		arm := refCore(s.cores[i+1])
		switch op {
		case "UNION ALL":
			out = append(slices.Clip(out), arm...)
		case "UNION":
			out = refDistinct(append(slices.Clip(out), arm...), nil)
		case "MINUS":
			drop := make(map[string]bool)
			for _, r := range arm {
				drop[fmt.Sprint(r)] = true
			}
			out = slices.DeleteFunc(refDistinct(out, nil), func(r storage.Row) bool { return drop[fmt.Sprint(r)] })
		}
	}
	return out
}

// refDistinct keeps each row's first occurrence, and the keys beside it.
func refDistinct(rows []storage.Row, keys [][]storage.Value) []storage.Row {
	seen := make(map[string]bool)
	var out []storage.Row
	n := 0
	for i, r := range rows {
		if k := fmt.Sprint(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
			if keys != nil {
				keys[n] = keys[i]
			}
			n++
		}
	}
	return out
}

func refCore(c *pipeCore) []storage.Row {
	// The FROM entries' rows, each two values wide.
	srcs := make([][]storage.Row, len(c.tables))
	for i, name := range c.tables {
		if c.subs[i] != nil {
			srcs[i] = refStmt(c.subs[i])
			continue
		}
		for _, r := range pipeTables[name] {
			srcs[i] = append(srcs[i], pipeRow(name, r))
		}
	}
	// Nested loops in FROM order.
	combos := []storage.Row{{}}
	for _, src := range srcs {
		var next []storage.Row
		for _, l := range combos {
			for _, r := range src {
				next = append(next, append(slices.Clip(l), r...))
			}
		}
		combos = next
	}
	var passed []storage.Row
	for _, row := range combos {
		if refPasses(c.conds, func(col pipeCol) storage.Value { return refAt(row, col) }) {
			passed = append(passed, row)
		}
	}
	var rows []storage.Row
	var keys [][]storage.Value
	if c.grouped {
		rows, keys = refGroups(c, passed)
	}
	for _, row := range passed {
		if c.grouped {
			break
		}
		out := row
		if !c.star {
			out = storage.Row{refAt(row, c.items[0]), refAt(row, c.items[1])}
		}
		var k []storage.Value
		for _, o := range c.order {
			k = append(k, refAt(row, o.key))
		}
		rows, keys = append(rows, out), append(keys, k)
	}
	if c.distinct {
		rows = refDistinct(rows, keys)
		keys = keys[:len(rows)]
	}
	if len(c.order) > 0 {
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int {
			for i, o := range c.order {
				if d := refCompare(keys[a][i], keys[b][i]); d != 0 {
					if o.desc {
						return -d
					}
					return d
				}
			}
			return 0
		})
		sorted := make([]storage.Row, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	if c.limit >= 0 {
		rows = rows[min(c.offset, len(rows)):]
		rows = rows[:min(c.limit, len(rows))]
	}
	return rows
}

// refAt is column c of a joined row.
func refAt(row storage.Row, c pipeCol) storage.Value { return row[2*c.src+c.col] }

// refGroups groups a grouped core's filtered rows by its keys, NULL keys
// together, in the order each group's first row arrives (one group over all
// of them, however few, without keys), and returns the output rows of the
// groups HAVING keeps with their ORDER BY keys. A key item and a key column
// read the group's first row.
func refGroups(c *pipeCore, passed []storage.Row) ([]storage.Row, [][]storage.Value) {
	var order []string
	groups := make(map[string][]storage.Row)
	if len(c.groupBy) == 0 {
		order, groups[""] = []string{""}, passed
	}
	for _, row := range passed {
		if len(c.groupBy) == 0 {
			break
		}
		var k []storage.Value
		for _, col := range c.groupBy {
			k = append(k, refAt(row, col))
		}
		ks := fmt.Sprint(k)
		if _, ok := groups[ks]; !ok {
			order = append(order, ks)
		}
		groups[ks] = append(groups[ks], row)
	}
	var rows []storage.Row
	var keys [][]storage.Value
	for _, ks := range order {
		g := groups[ks]
		if h := c.having; h != nil && !refTrue(h.op, refAgg(h.agg, g), pipeValue(h.rv)) {
			continue
		}
		out := make(storage.Row, 2)
		for i := range out {
			if c.aggs[i] != nil {
				out[i] = refAgg(c.aggs[i], g)
			} else {
				out[i] = refAt(g[0], c.items[i])
			}
		}
		var k []storage.Value
		for _, o := range c.order {
			switch o.alias {
			case "x":
				k = append(k, out[0])
			case "y":
				k = append(k, out[1])
			default:
				k = append(k, refAt(g[0], o.key))
			}
		}
		rows, keys = append(rows, out), append(keys, k)
	}
	return rows, keys
}

// refAgg evaluates a over a group's rows: NULLs are skipped, a sum is FLOAT
// once a FLOAT value is summed, and an aggregate over no value is NULL, a
// count 0.
func refAgg(a *pipeAgg, rows []storage.Row) storage.Value {
	if a.star {
		return storage.NewInt(int64(len(rows)))
	}
	var vals []storage.Value
	seen := make(map[string]bool)
	for _, row := range rows {
		v := refAt(row, a.arg)
		if v.IsNull() || (a.distinct && seen[v.String()]) {
			continue
		}
		seen[v.String()] = true
		vals = append(vals, v)
	}
	if a.fn == "count" {
		return storage.NewInt(int64(len(vals)))
	}
	if len(vals) == 0 {
		return storage.Null
	}
	var sumI int64
	var sumF float64
	anyFloat := false
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v.K == storage.KindFloat {
			anyFloat = true
		} else {
			sumI += v.I
		}
		sumF += v.Float()
		if refCompare(v, lo) < 0 {
			lo = v
		}
		if refCompare(v, hi) > 0 {
			hi = v
		}
	}
	switch a.fn {
	case "min":
		return lo
	case "max":
		return hi
	case "avg":
		return storage.NewFloat(sumF / float64(len(vals)))
	}
	if anyFloat {
		return storage.NewFloat(sumF)
	}
	return storage.NewInt(sumI)
}

// refCompare orders NULL before every value, and numbers by value whatever
// their kind.
func refCompare(a, b storage.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	c, _ := storage.Compare(a, b)
	return c
}

// refTrue reports whether `l op r` is true: false when either is NULL.
func refTrue(op string, l, r storage.Value) bool {
	if l.IsNull() || r.IsNull() {
		return false
	}
	d := refCompare(l, r)
	return map[string]bool{"=": d == 0, "!=": d != 0, "<": d < 0, ">": d > 0}[op]
}

// refPasses reports whether every condition is true (not false, not NULL).
func refPasses(conds []pipeCond, val func(pipeCol) storage.Value) bool {
	for _, cd := range conds {
		if !refCondTrue(cd, val) {
			return false
		}
	}
	return true
}

// refCondTrue reports whether cd is true. Under three-valued logic a
// disjunction is true when either side is, whatever the other's NULL; IN is
// true when the probe equals a member, BETWEEN when both bounds hold.
func refCondTrue(cd pipeCond, val func(pipeCol) storage.Value) bool {
	l := val(cd.l)
	switch {
	case cd.or != nil:
		one := cd
		one.or = nil
		return refCondTrue(one, val) || refCondTrue(*cd.or, val)
	case cd.op == "IS NULL":
		return l.IsNull() != cd.not
	case cd.op == "IN":
		return slices.ContainsFunc(cd.list, func(v int) bool { return refTrue("=", l, pipeValue(v)) })
	case cd.op == "BETWEEN":
		return !refTrue("<", l, pipeValue(cd.list[0])) && !refTrue(">", l, pipeValue(cd.list[1])) && !l.IsNull()
	}
	r := pipeValue(cd.rv)
	if cd.rc != nil {
		r = val(*cd.rc)
	}
	return refTrue(cd.op, l, r)
}

// checkPipe runs s on db and holds its rows, in order, to the reference.
func checkPipe(t *testing.T, db *DB, s *pipeStmt) {
	t.Helper()
	q := s.String()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if got, want := fmt.Sprint(res.Rows), fmt.Sprint(refStmt(s)); got != want {
		t.Fatalf("%s:\n got %s\nwant %s", q, got, want)
	}
}

// TestRowPipelineMatchesReference draws statements over DISTINCT, ORDER BY
// (non-selected keys under DISTINCT included), LIMIT/OFFSET, UNION, UNION
// ALL and MINUS chains, two- and three-way equi and non-equi joins, derived
// tables and grouped cores (GROUP BY over zero to two keys, count, count
// DISTINCT, sum, min, max and avg over INT and FLOAT columns, HAVING, ORDER
// BY an aggregate's alias), joining, deduping and grouping INT values with
// FLOAT values equal to them, and holds each to the reference.
func TestRowPipelineMatchesReference(t *testing.T) {
	db := buildPipeDB(t)
	for seed := int64(0); seed < 600; seed++ {
		checkPipe(t, db, pipeGen{r: rand.New(rand.NewSource(seed))}.stmt(0, true))
	}
}

// checkPipeMultiset runs s on db and holds its rows, as a multiset, to the
// reference, and returns the run's counters.
func checkPipeMultiset(t *testing.T, db *DB, s *pipeStmt) Counters {
	t.Helper()
	q := s.String()
	rows, err := db.Stream(context.Background(), q)
	if err != nil {
		t.Fatalf("%s [%s]: %v", q, db.Dialect().Name(), err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		got = append(got, fmt.Sprint(rows.Row()))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s [%s]: %v", q, db.Dialect().Name(), err)
	}
	var want []string
	for _, r := range refStmt(s) {
		want = append(want, fmt.Sprint(r))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s [%s]:\n got %v\nwant %v", q, db.Dialect().Name(), got, want)
	}
	return rows.Counters()
}

// TestIndexedPipelineMatchesReference is the indexed variant: the same
// generator, with IN, BETWEEN and OR conditions and no LIMIT or OFFSET, over
// the tables indexed on x and cut into two-row segments, on mysql and
// postgres. Over its seeds the runs must reach an index scan, a bitmap OR
// scan and a pruned segment, or they check nothing those paths do.
func TestIndexedPipelineMatchesReference(t *testing.T) {
	var sum Counters
	for _, d := range []Dialect{MySQL(), Postgres()} {
		db := newPipeDB(t, d, true)
		for seed := int64(0); seed < 600; seed++ {
			sum.Add(checkPipeMultiset(t, db, pipeGen{r: rand.New(rand.NewSource(seed)), indexed: true}.stmt(0, true)))
		}
	}
	if sum.IndexScans == 0 || sum.BitmapOrScans == 0 || sum.SegmentsPruned == 0 {
		t.Errorf("index scans %d, bitmap OR scans %d, segments pruned %d: want each above 0", sum.IndexScans, sum.BitmapOrScans, sum.SegmentsPruned)
	}
}

// FuzzRowPipeline holds the pipeline to the reference on the statement a
// seed draws: the property test's generator, explored, drawing both
// variants — the plain tables in order, and the indexed, segmented ones on
// each dialect as multisets.
func FuzzRowPipeline(f *testing.F) {
	db := buildPipeDB(f)
	indexed := []*DB{newPipeDB(f, MySQL(), true), newPipeDB(f, Postgres(), true)}
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkPipe(t, db, pipeGen{r: rand.New(rand.NewSource(seed))}.stmt(0, true))
		for _, idb := range indexed {
			checkPipeMultiset(t, idb, pipeGen{r: rand.New(rand.NewSource(seed)), indexed: true}.stmt(0, true))
		}
	})
}

// TestNumericKeysMatchEquality: the hash join, the dedupe and GROUP BY key
// an INT and a FLOAT the way = compares them, so an integral FLOAT meets
// the INT it equals: the hash join finds the rows the same join written as
// two inequalities does, and DISTINCT and GROUP BY see each number once.
func TestNumericKeysMatchEquality(t *testing.T) {
	db := buildPipeDB(t)
	const d = "(SELECT f.y * 2 AS s FROM f) AS d"
	const both = "(SELECT f.y * 2 AS s FROM f UNION ALL SELECT a.x FROM a) AS d"
	for _, c := range []struct {
		sql  string
		want int
	}{
		{"SELECT a.x, d.s FROM a, " + d + " WHERE a.x = d.s", 10},
		{"SELECT a.x, d.s FROM a, " + d + " WHERE a.x <= d.s AND a.x >= d.s", 10},
		{"SELECT DISTINCT d.s FROM " + both + " WHERE d.s >= 0", 3},
		{"SELECT d.s, count(*) FROM " + both + " WHERE d.s >= 0 GROUP BY d.s", 3},
		{"SELECT d.s FROM " + both + " WHERE d.s >= 0 UNION SELECT a.x FROM a WHERE a.x >= 0", 3},
	} {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: %d rows, want %d: %v", c.sql, len(res.Rows), c.want, res.Rows)
		}
	}
	res, err := db.Query("SELECT count(DISTINCT d.s) FROM " + both)
	if err != nil || res.Rows[0][0].I != 3 {
		t.Fatalf("count(DISTINCT) over INT and FLOAT = %v, %v; want 3", res.Rows, err)
	}
}

// TestKeysTellStringsApart: rows whose strings split the same bytes
// differently — ("a", "p\x00cq") and ("a\x00cp", "q"), for every byte c —
// are distinct rows to DISTINCT, distinct groups to GROUP BY and no match
// to a hash join, whatever byte tags a string in a key.
func TestKeysTellStringsApart(t *testing.T) {
	db := New(MySQL())
	schema := storage.MustSchema(
		storage.Column{Name: "x", Type: storage.KindString},
		storage.Column{Name: "y", Type: storage.KindString},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for c := range 256 {
		tag := string([]byte{0, byte(c)})
		rows = append(rows,
			storage.Row{storage.NewString("a"), storage.NewString("p" + tag + "q")},
			storage.Row{storage.NewString("a" + tag + "p"), storage.NewString("q")})
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT DISTINCT x, y FROM t",
		"SELECT x, y, count(*) FROM t GROUP BY x, y",
		"SELECT u.x FROM t AS u, t AS v WHERE u.x = v.x AND u.y = v.y",
	} {
		res, err := db.Query(sql)
		if err != nil || len(res.Rows) != len(rows) {
			t.Errorf("%s: %d rows, err %v; want %d", sql, len(res.Rows), err, len(rows))
		}
	}
}

// TestPipelineOpensWithoutReading: opening a join, a set operation or a
// derived table reads no tuple — a join's build side and a MINUS's right
// arm are drained at the first Next — and a consumer that stops after one
// row reads fewer tuples than one that drains the query.
func TestPipelineOpensWithoutReading(t *testing.T) {
	db := buildStreamDB(t, 2000)
	db.ScanWorkers = 1
	ctx := context.Background()
	queries := map[string]string{
		"hash join":     "SELECT s1.id, s2.grp FROM s s1, s s2 WHERE s1.id = s2.id",
		"cross join":    "SELECT s1.id FROM s s1, s s2 WHERE s2.id < 3 AND s1.grp != s2.grp",
		"three-way":     "SELECT s1.id FROM s s1, s s2, s s3 WHERE s1.id = s2.id AND s2.id = s3.id",
		"union":         "SELECT id FROM s WHERE grp < 3 UNION SELECT id FROM s WHERE grp > 1",
		"union all":     "SELECT id FROM s UNION ALL SELECT grp FROM s",
		"minus":         "SELECT id FROM s MINUS SELECT id FROM s WHERE grp = 0",
		"derived":       "SELECT d.id FROM (SELECT id, grp FROM s WHERE grp < 5) AS d WHERE d.grp > 0",
		"derived union": "SELECT * FROM (SELECT id FROM s UNION SELECT grp FROM s) AS d",
	}
	for name, q := range queries {
		read := func(limit bool) (open, done int64) {
			sql := q
			if limit {
				sql = "SELECT * FROM (" + q + ") AS l LIMIT 1"
			}
			rows, err := db.Stream(ctx, sql)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			open = rows.Counters().TuplesRead
			n := 0
			for rows.Next() {
				n++
			}
			if err := rows.Err(); err != nil || n == 0 {
				t.Fatalf("%s: %d rows, err %v", name, n, err)
			}
			return open, rows.Counters().TuplesRead
		}
		open, drained := read(false)
		if open != 0 {
			t.Errorf("%s: opening read %d tuples, want 0", name, open)
		}
		if open, first := read(true); open != 0 || first >= drained {
			t.Errorf("%s: LIMIT 1 read %d tuples at open and %d in all, draining %d; want 0 and fewer", name, open, first, drained)
		}
	}
}
