package engine

import (
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Vectorised guard evaluation: instead of interpreting the WHERE expression
// tree once per tuple (rowPasses), every sequential scan compiles its
// conjuncts into a tree of vector operators and runs each operator
// column-at-a-time over a batch of rows (storage.Batch). The interpretation
// overhead — tree walks, type switches, env lookups — is paid once per batch
// instead of once per row, which is where the cycles go once zone maps have
// already skipped the segments that cannot match.
//
// Three rules make a program select exactly the rows rowPasses would:
//
//  1. Three-valued logic is preserved end to end. Every predicate operator
//     produces a tri-state vector (true/false/null) and AND/OR/NOT combine
//     them with the same and3/or3/not3 tables the row evaluator uses, so
//     NULL-heavy data filters identically.
//  2. Short-circuits narrow the active set exactly like the row evaluator
//     narrows its work: AND stops evaluating rows proven false, OR stops
//     rows proven true, and the top-level conjunct loop drops rows that are
//     not definitely true. An expression with side effects (a UDF — the Δ
//     operator — or a subquery) is therefore invoked for precisely the rows
//     rowPasses would have invoked it for, keeping UDFInvocations and
//     PolicyEvals byte-identical to the reference's.
//  3. Anything the compiler cannot vectorise — UDF calls, subqueries,
//     correlated outer references — becomes a lazy leaf that falls back to
//     the scalar evaluator for exactly the rows still active at that point
//     in the tree: a lazy leaf is the row evaluator at leaf granularity,
//     so a filter with nothing columnar in it is still a program.
//
// rowPasses remains the filter of index fetch lists and derived sources,
// and the reference the differential oracle (vector_oracle_test.go) holds
// compiled programs to, row for row and counter for counter.

// tri is a three-valued truth value.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
)

func triOf(v storage.Value) tri {
	t, null := truth(v)
	switch {
	case null:
		return triNull
	case t:
		return triTrue
	default:
		return triFalse
	}
}

func triAnd(l, r tri) tri {
	switch {
	case l == triFalse || r == triFalse:
		return triFalse
	case l == triNull || r == triNull:
		return triNull
	default:
		return triTrue
	}
}

func triOr(l, r tri) tri {
	switch {
	case l == triTrue || r == triTrue:
		return triTrue
	case l == triNull || r == triNull:
		return triNull
	default:
		return triFalse
	}
}

func triNot(v tri) tri {
	switch v {
	case triNull:
		return triNull
	case triTrue:
		return triFalse
	default:
		return triTrue
	}
}

// vecEnv is the per-batch evaluation context: the batch, the scalar
// evaluator lazy leaves fall back to, the scan's schema and outer env, the
// segment's owner dictionary (for partition skipping), and a cancellation
// hook polled between operators.
type vecEnv struct {
	b         *storage.Batch
	ev        *evaluator
	schema    *RelSchema
	outer     *env
	ownerCol  int // view's tracked owner column, -1 when untracked
	owners    storage.OwnerDict
	hasOwners bool
	poll      func() error
}

// vecVal produces one value per active row position (out is indexed by
// batch position; only active positions are written).
type vecVal interface {
	eval(ve *vecEnv, active []int, out []storage.Value) error
}

// vecPred produces one tri-state truth per active row position.
type vecPred interface {
	eval(ve *vecEnv, active []int, out []tri) error
}

func growVals(buf []storage.Value, n int) []storage.Value {
	if cap(buf) < n {
		return make([]storage.Value, n)
	}
	return buf[:n]
}

func growTris(buf []tri, n int) []tri {
	if cap(buf) < n {
		return make([]tri, n)
	}
	return buf[:n]
}

// ---- value operators ----

// colVec reads a column vector straight from the batch.
type colVec struct{ col int }

func (v *colVec) eval(ve *vecEnv, active []int, out []storage.Value) error {
	vec := ve.b.Col(v.col)
	for _, i := range active {
		out[i] = vec[i]
	}
	return nil
}

// constVec broadcasts a literal.
type constVec struct{ v storage.Value }

func (v *constVec) eval(ve *vecEnv, active []int, out []storage.Value) error {
	for _, i := range active {
		out[i] = v.v
	}
	return nil
}

// arithVec applies +,-,*,/ element-wise.
type arithVec struct {
	op   sqlparser.BinOp
	l, r vecVal
	lbuf []storage.Value
	rbuf []storage.Value
}

func (v *arithVec) eval(ve *vecEnv, active []int, out []storage.Value) error {
	n := ve.b.Len()
	v.lbuf, v.rbuf = growVals(v.lbuf, n), growVals(v.rbuf, n)
	if err := v.l.eval(ve, active, v.lbuf); err != nil {
		return err
	}
	if err := v.r.eval(ve, active, v.rbuf); err != nil {
		return err
	}
	for _, i := range active {
		x, err := arith(v.op, v.lbuf[i], v.rbuf[i])
		if err != nil {
			return err
		}
		out[i] = x
	}
	return nil
}

// lazyVec evaluates an uncompilable value expression (UDF call, subquery,
// correlated reference) through the scalar evaluator, row by row, for the
// active rows only.
type lazyVec struct{ expr sqlparser.Expr }

func (v *lazyVec) eval(ve *vecEnv, active []int, out []storage.Value) error {
	for _, i := range active {
		en := &env{schema: ve.schema, row: ve.b.Row(i), outer: ve.outer}
		x, err := ve.ev.eval(v.expr, en)
		if err != nil {
			return err
		}
		out[i] = x
	}
	return nil
}

// ---- predicate operators ----

// cmpVec compares two value vectors under SQL three-valued semantics.
type cmpVec struct {
	op   sqlparser.CmpOp
	l, r vecVal
	lbuf []storage.Value
	rbuf []storage.Value
}

func (p *cmpVec) eval(ve *vecEnv, active []int, out []tri) error {
	n := ve.b.Len()
	p.lbuf, p.rbuf = growVals(p.lbuf, n), growVals(p.rbuf, n)
	if err := p.l.eval(ve, active, p.lbuf); err != nil {
		return err
	}
	if err := p.r.eval(ve, active, p.rbuf); err != nil {
		return err
	}
	for _, i := range active {
		out[i] = triOf(compareValues(p.op, p.lbuf[i], p.rbuf[i]))
	}
	return nil
}

// constTri broadcasts a constant truth — the default-deny rewrite's FALSE
// arrives here and empties the selection without touching a vector.
type constTri struct{ t tri }

func (p *constTri) eval(ve *vecEnv, active []int, out []tri) error {
	for _, i := range active {
		out[i] = p.t
	}
	return nil
}

// valPred adapts a value vector to a predicate (SQL truthiness).
type valPred struct {
	v   vecVal
	buf []storage.Value
}

func (p *valPred) eval(ve *vecEnv, active []int, out []tri) error {
	p.buf = growVals(p.buf, ve.b.Len())
	if err := p.v.eval(ve, active, p.buf); err != nil {
		return err
	}
	for _, i := range active {
		out[i] = triOf(p.buf[i])
	}
	return nil
}

// andVec is binary AND with the row evaluator's short-circuit: the right
// side is evaluated only for rows the left side did not prove false.
type andVec struct {
	l, r vecPred
	buf  []tri
	act  []int
}

func (p *andVec) eval(ve *vecEnv, active []int, out []tri) error {
	if err := p.l.eval(ve, active, out); err != nil {
		return err
	}
	p.act = p.act[:0]
	for _, i := range active {
		if out[i] != triFalse {
			p.act = append(p.act, i)
		}
	}
	if len(p.act) == 0 {
		return nil
	}
	p.buf = growTris(p.buf, ve.b.Len())
	if err := p.r.eval(ve, p.act, p.buf); err != nil {
		return err
	}
	for _, i := range p.act {
		out[i] = triAnd(out[i], p.buf[i])
	}
	return nil
}

// armEq is one top-level owner-equality conjunct of a disjunction arm:
// the arm can only be true for rows whose col value is one of pts.
type armEq struct {
	col int
	pts []int64
}

// orVec is the n-ary disjunction operator — the shape the §5.3 rewrite
// produces (one arm per guard partition). Arms are evaluated left to right
// and each arm sees only the rows not yet proven true, mirroring or3's
// short-circuit. Before an arm's vectors are touched, its owner-equality
// points (when it has any on the scan's tracked owner column) are tested
// against the segment's owner dictionary: a partition whose owner set is
// disjoint from the dictionary cannot be true for any row in the batch, so
// the whole arm is skipped. The skip is withheld when the segment has seen
// NULL owners, where the arm would evaluate to NULL (not FALSE) and its
// remaining conjuncts would still run under rowPasses semantics.
type orVec struct {
	arms   []vecPred
	armEqs [][]armEq
	buf    []tri
	act    []int
}

// armRefuted reports whether the segment's owner dictionary proves the arm
// false for every row of the batch.
func (p *orVec) armRefuted(ve *vecEnv, k int) bool {
	if !ve.hasOwners || ve.owners.HasNulls() {
		return false
	}
	for _, eq := range p.armEqs[k] {
		if eq.col == ve.ownerCol && ve.owners.DisjointFrom(eq.pts) {
			return true
		}
	}
	return false
}

func (p *orVec) eval(ve *vecEnv, active []int, out []tri) error {
	for _, i := range active {
		out[i] = triFalse
	}
	p.act = append(p.act[:0], active...)
	p.buf = growTris(p.buf, ve.b.Len())
	for k, arm := range p.arms {
		if len(p.act) == 0 {
			return nil
		}
		if p.armRefuted(ve, k) {
			continue // or3(x, FALSE) = x for every active row
		}
		if err := arm.eval(ve, p.act, p.buf); err != nil {
			return err
		}
		keep := p.act[:0]
		for _, i := range p.act {
			out[i] = triOr(out[i], p.buf[i])
			if out[i] != triTrue {
				keep = append(keep, i)
			}
		}
		p.act = keep
	}
	return nil
}

// notVec negates under 3VL.
type notVec struct {
	kid vecPred
	buf []tri
}

func (p *notVec) eval(ve *vecEnv, active []int, out []tri) error {
	p.buf = growTris(p.buf, ve.b.Len())
	if err := p.kid.eval(ve, active, p.buf); err != nil {
		return err
	}
	for _, i := range active {
		out[i] = triNot(p.buf[i])
	}
	return nil
}

// betweenVec evaluates E BETWEEN Lo AND Hi; like the row evaluator it
// computes all three operands, then and3's the bound comparisons.
type betweenVec struct {
	e, lo, hi          vecVal
	not                bool
	ebuf, lobuf, hibuf []storage.Value
}

func (p *betweenVec) eval(ve *vecEnv, active []int, out []tri) error {
	n := ve.b.Len()
	p.ebuf, p.lobuf, p.hibuf = growVals(p.ebuf, n), growVals(p.lobuf, n), growVals(p.hibuf, n)
	if err := p.e.eval(ve, active, p.ebuf); err != nil {
		return err
	}
	if err := p.lo.eval(ve, active, p.lobuf); err != nil {
		return err
	}
	if err := p.hi.eval(ve, active, p.hibuf); err != nil {
		return err
	}
	for _, i := range active {
		ge := triOf(compareValues(sqlparser.CmpGe, p.ebuf[i], p.lobuf[i]))
		le := triOf(compareValues(sqlparser.CmpLe, p.ebuf[i], p.hibuf[i]))
		t := triAnd(ge, le)
		if p.not {
			t = triNot(t)
		}
		out[i] = t
	}
	return nil
}

// inVec evaluates E IN (list) with SQL's NULL rules: a NULL probe is NULL
// (members are then not evaluated, like the row path), a miss over a list
// containing NULL is NULL.
type inVec struct {
	e     vecVal
	list  []vecVal
	not   bool
	ebuf  []storage.Value
	mbuf  []storage.Value
	state []tri // running membership per row: false=miss, true=hit, null=miss-with-null
	act   []int
}

func (p *inVec) eval(ve *vecEnv, active []int, out []tri) error {
	n := ve.b.Len()
	p.ebuf, p.mbuf = growVals(p.ebuf, n), growVals(p.mbuf, n)
	p.state = growTris(p.state, n)
	if err := p.e.eval(ve, active, p.ebuf); err != nil {
		return err
	}
	p.act = p.act[:0]
	for _, i := range active {
		if p.ebuf[i].IsNull() {
			out[i] = triNull
			continue
		}
		p.state[i] = triFalse
		p.act = append(p.act, i)
	}
	// The row evaluator materialises every member before scanning, so the
	// vector path evaluates each member expression for all non-NULL probes.
	for _, m := range p.list {
		if len(p.act) == 0 {
			break
		}
		if err := m.eval(ve, p.act, p.mbuf); err != nil {
			return err
		}
		for _, i := range p.act {
			switch {
			case p.state[i] == triTrue:
			case p.mbuf[i].IsNull():
				p.state[i] = triNull
			case storage.Equal(p.ebuf[i], p.mbuf[i]):
				p.state[i] = triTrue
			}
		}
	}
	for _, i := range p.act {
		t := p.state[i]
		if p.not {
			t = triNot(t) // NULL probes already hold triNull: not3(NULL) = NULL
		}
		out[i] = t
	}
	return nil
}

// isNullVec evaluates E IS [NOT] NULL — never NULL itself.
type isNullVec struct {
	e   vecVal
	not bool
	buf []storage.Value
}

func (p *isNullVec) eval(ve *vecEnv, active []int, out []tri) error {
	p.buf = growVals(p.buf, ve.b.Len())
	if err := p.e.eval(ve, active, p.buf); err != nil {
		return err
	}
	for _, i := range active {
		if p.buf[i].IsNull() != p.not {
			out[i] = triTrue
		} else {
			out[i] = triFalse
		}
	}
	return nil
}

// lazyTri evaluates an uncompilable predicate through the scalar evaluator
// for the active rows only — the rowPasses fallback at leaf granularity.
type lazyTri struct{ expr sqlparser.Expr }

func (p *lazyTri) eval(ve *vecEnv, active []int, out []tri) error {
	for _, i := range active {
		en := &env{schema: ve.schema, row: ve.b.Row(i), outer: ve.outer}
		v, err := ve.ev.eval(p.expr, en)
		if err != nil {
			return err
		}
		out[i] = triOf(v)
	}
	return nil
}

// ---- compilation ----

// vecCompiler translates scan conjuncts into vector operators against one
// relation schema.
type vecCompiler struct {
	schema *RelSchema
	armEqs int // disjunction arms that collected skippable eq points
}

// compileVal translates a value expression; anything unknown becomes a
// lazy leaf.
func (vc *vecCompiler) compileVal(e sqlparser.Expr) vecVal {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &constVec{v: x.Val}
	case *sqlparser.ColRef:
		if i, err := vc.schema.Resolve(x.Table, x.Column); err == nil {
			return &colVec{col: i}
		}
		// Correlated/outer (or ambiguous) reference: resolve per row
		// through the env chain, exactly like the row path.
		return &lazyVec{expr: e}
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			return &arithVec{op: x.Op, l: vc.compileVal(x.L), r: vc.compileVal(x.R)}
		}
		return &lazyVec{expr: e}
	default:
		// UDF calls, subqueries: scalar evaluation per active row.
		return &lazyVec{expr: e}
	}
}

// compilePred translates a predicate expression; anything unknown becomes
// a lazy leaf.
func (vc *vecCompiler) compilePred(e sqlparser.Expr) vecPred {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &constTri{t: triOf(x.Val)}
	case *sqlparser.CompareExpr:
		return &cmpVec{op: x.Op, l: vc.compileVal(x.L), r: vc.compileVal(x.R)}
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			return &andVec{l: vc.compilePred(x.L), r: vc.compilePred(x.R)}
		case sqlparser.OpOr:
			return vc.compileOr(e)
		}
		return &valPred{v: vc.compileVal(e)}
	case *sqlparser.NotExpr:
		return &notVec{kid: vc.compilePred(x.E)}
	case *sqlparser.BetweenExpr:
		return &betweenVec{e: vc.compileVal(x.E), lo: vc.compileVal(x.Lo), hi: vc.compileVal(x.Hi), not: x.Not}
	case *sqlparser.InExpr:
		if x.Sub != nil {
			return &lazyTri{expr: e}
		}
		iv := &inVec{e: vc.compileVal(x.E), not: x.Not}
		for _, item := range x.List {
			iv.list = append(iv.list, vc.compileVal(item))
		}
		return iv
	case *sqlparser.IsNullExpr:
		return &isNullVec{e: vc.compileVal(x.E), not: x.Not}
	case *sqlparser.ColRef:
		return &valPred{v: vc.compileVal(e)}
	default:
		return &lazyTri{expr: e}
	}
}

// compileOr builds the n-ary disjunction operator over e's disjuncts,
// extracting each arm's top-level owner-equality points for
// dictionary-based partition skipping.
func (vc *vecCompiler) compileOr(e sqlparser.Expr) vecPred {
	disj := sqlparser.Disjuncts(e)
	ov := &orVec{}
	for _, d := range disj {
		ov.arms = append(ov.arms, vc.compilePred(d))
		eqs := vc.armEqPoints(d)
		ov.armEqs = append(ov.armEqs, eqs)
		vc.armEqs += len(eqs)
	}
	return ov
}

// pureTotalPredicate reports whether evaluating e can neither error nor
// have side effects for any row: comparisons, BETWEEN, IN lists, IS NULL
// and logical combinations over this scan's columns and literals only. UDF
// calls, subqueries, arithmetic (which errors on non-numeric kinds) and
// unresolvable column references all disqualify. Skipping a disjunction
// arm is only sound when every conjunct the row evaluator would have
// reached first is pure and total — otherwise the skip would suppress an
// error or a UDF invocation the row path performs.
func (vc *vecCompiler) pureTotalPredicate(e sqlparser.Expr) bool {
	pure := true
	sqlparser.Walk(e, false, func(x sqlparser.Expr) {
		switch n := x.(type) {
		case *sqlparser.Literal, *sqlparser.CompareExpr, *sqlparser.BetweenExpr,
			*sqlparser.IsNullExpr, *sqlparser.NotExpr:
		case *sqlparser.ColRef:
			if _, err := vc.schema.Resolve(n.Table, n.Column); err != nil {
				pure = false
			}
		case *sqlparser.BinaryExpr:
			if n.Op != sqlparser.OpAnd && n.Op != sqlparser.OpOr {
				pure = false // arithmetic errors on non-numeric values
			}
		case *sqlparser.InExpr:
			if n.Sub != nil {
				pure = false
			}
		default:
			pure = false // FuncCall, SubqueryExpr, ExistsExpr, …
		}
	})
	return pure
}

// armEqPoints collects the arm's top-level integer equality point sets
// (col = k, col IN (k1, k2, …)) per schema column, stopping at the first
// conjunct that is not pure and total — an equality the row evaluator
// would only reach after a UDF call or a possibly-erroring expression
// must not license skipping them. At run time the batch evaluator matches
// the collected points against the view's tracked owner column; a
// disjoint owner dictionary then refutes the arm for the whole batch.
func (vc *vecCompiler) armEqPoints(arm sqlparser.Expr) []armEq {
	var out []armEq
	add := func(colRef *sqlparser.ColRef, pts []int64) {
		if colRef == nil || len(pts) == 0 {
			return
		}
		i, err := vc.schema.Resolve(colRef.Table, colRef.Column)
		if err != nil {
			return
		}
		out = append(out, armEq{col: i, pts: pts})
	}
	for _, cj := range sqlparser.Conjuncts(arm) {
		if !vc.pureTotalPredicate(cj) {
			break
		}
		switch x := cj.(type) {
		case *sqlparser.CompareExpr:
			if x.Op != sqlparser.CmpEq {
				continue
			}
			if c, ok := x.L.(*sqlparser.ColRef); ok {
				if l, ok := x.R.(*sqlparser.Literal); ok && l.Val.K == storage.KindInt {
					add(c, []int64{l.Val.I})
				}
			} else if c, ok := x.R.(*sqlparser.ColRef); ok {
				if l, ok := x.L.(*sqlparser.Literal); ok && l.Val.K == storage.KindInt {
					add(c, []int64{l.Val.I})
				}
			}
		case *sqlparser.InExpr:
			if x.Not || x.Sub != nil {
				continue
			}
			c, ok := x.E.(*sqlparser.ColRef)
			if !ok {
				continue
			}
			pts := make([]int64, 0, len(x.List))
			for _, item := range x.List {
				l, ok := item.(*sqlparser.Literal)
				if !ok || l.Val.K != storage.KindInt {
					pts = nil
					break
				}
				pts = append(pts, l.Val.I)
			}
			add(c, pts)
		}
	}
	return out
}

// vecProgram is the compiled batch filter for one scan: one predicate per
// WHERE conjunct, applied in order with rows dropped as soon as a conjunct
// is not definitely true (rowPasses semantics). A program holds scratch
// state and is therefore single-goroutine; parallel scan workers compile
// their own.
type vecProgram struct {
	preds  []vecPred
	out    []tri
	active []int
	// needsOwners gates the per-batch owner-dictionary snapshot: false
	// when no disjunction arm collected skippable equality points.
	needsOwners bool
}

// compileVecProgram compiles the scan conjuncts against the scan schema;
// nil when there is nothing to filter.
func compileVecProgram(conjs []sqlparser.Expr, schema *RelSchema) *vecProgram {
	if len(conjs) == 0 {
		return nil
	}
	vc := &vecCompiler{schema: schema}
	p := &vecProgram{}
	for _, cj := range conjs {
		p.preds = append(p.preds, vc.compilePred(cj))
	}
	p.needsOwners = vc.armEqs > 0
	return p
}

// compileScanFilter is how a sequential scan obtains its filter. It is a
// variable only so that export_test.go can put the rowPasses reference in
// its place for the differential oracle; nothing outside _test.go assigns it.
var compileScanFilter = compileVecProgram

// run filters the batch: every selected row satisfies all conjuncts, with
// three-valued logic, short-circuits, and fallback evaluation matching
// rowPasses row for row. ve.poll is honoured between conjuncts.
func (p *vecProgram) run(ve *vecEnv) error {
	n := ve.b.Len()
	if cap(p.active) < n {
		p.active = make([]int, 0, n)
	}
	p.active = p.active[:0]
	for i := 0; i < n; i++ {
		p.active = append(p.active, i)
	}
	p.out = growTris(p.out, n)
	for _, pred := range p.preds {
		if ve.poll != nil {
			if err := ve.poll(); err != nil {
				return err
			}
		}
		if len(p.active) == 0 {
			return nil
		}
		if err := pred.eval(ve, p.active, p.out); err != nil {
			return err
		}
		keep := p.active[:0]
		for _, i := range p.active {
			if p.out[i] == triTrue {
				keep = append(keep, i)
			} else {
				ve.b.Sel[i] = false
			}
		}
		p.active = keep
	}
	return nil
}
