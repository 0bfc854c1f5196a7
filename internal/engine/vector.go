package engine

import (
	"cmp"
	"slices"
	"sync/atomic"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Vectorised guard evaluation: instead of interpreting the WHERE expression
// tree once per tuple (rowPasses), every filtered base-table access — a
// sequential scan's batches and an index fetch list's alike — compiles its
// conjuncts into a tree of vector operators and runs each operator
// column-at-a-time over a batch of rows (storage.Batch). The interpretation
// overhead — tree walks, type switches, column lookups by name — is paid
// once per batch instead of once per row.
//
// Four rules make a program select exactly the rows rowPasses would:
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
//  4. A disjunction looks its arms up by the tuple instead of walking them
//     (dispatchOr): an arm is skipped for a tuple only when the row
//     evaluator would have found it FALSE before reaching anything that
//     can fail or have an effect, so skipping changes no result, no error
//     and no counter.
//
// A compiled program is immutable and holds no scratch: everything a run
// needs comes from the running goroutine's vecScratch, so fan-out workers
// and concurrent executions of a cached plan share one program, and every
// execution over one guard state shares its guard disjunction's operator
// (Conjunct, shared.go).
//
// rowPasses remains the filter of derived sources, and the reference the
// differential oracle (vector_oracle_test.go) holds compiled programs to,
// row for row and counter for counter.

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

func triOfBool(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// vecScratch is one goroutine's scratch arena: three typed stacks that
// operators take their per-batch buffers from and give back when they
// return, so a run's peak is the depth of the operator tree times the batch
// actually seen — not a batch-wide buffer per node. The arena outlives the
// execution (it is pooled with its batch filter), so a warmed-up scanner
// allocates nothing per batch, and nothing per execution, however many arms
// the program has.
type vecScratch struct {
	tris   []tri
	ints   []int
	vals   []storage.Value
	nt, ni int
	nv, hv int // hv: the value stack's high-water mark since the last clear
}

// scratchMark is a position of the three stacks.
type scratchMark struct{ t, i, v int }

func (s *vecScratch) mark() scratchMark     { return scratchMark{s.nt, s.ni, s.nv} }
func (s *vecScratch) release(m scratchMark) { s.nt, s.ni, s.nv = m.t, m.i, m.v }

// clear empties the stacks and zeroes the values used since the last clear,
// so a kept arena pins no string.
func (s *vecScratch) clear() {
	clear(s.vals[:s.hv])
	s.release(scratchMark{})
	s.hv = 0
}

// take returns n elements (contents unspecified) from the top of a stack.
// When the stack is too short it is replaced by a longer one; slices taken
// earlier keep the backing they were cut from, so nothing is copied.
func take[T any](buf *[]T, top *int, n int) []T {
	if *top+n > len(*buf) {
		*buf = make([]T, 2*(*top+n))
	}
	out := (*buf)[*top : *top+n : *top+n]
	*top += n
	return out
}

func (s *vecScratch) takeTris(n int) []tri { return take(&s.tris, &s.nt, n) }
func (s *vecScratch) takeInts(n int) []int { return take(&s.ints, &s.ni, n) }
func (s *vecScratch) takeVals(n int) []storage.Value {
	vals := take(&s.vals, &s.nv, n)
	s.hv = max(s.hv, s.nv)
	return vals
}

// vecEnv is one goroutine's evaluation context: the batch under evaluation,
// the scratch arena, the scalar evaluator and row environment lazy leaves
// fall back to, and a cancellation hook polled between conjuncts.
type vecEnv struct {
	b      *storage.Batch
	s      vecScratch
	ev     *evaluator
	rowEnv env // schema and outer fixed; row set per scalar evaluation
	poll   func() error
}

// scalar evaluates e, bound by b, for batch row i through the row
// evaluator.
func (ve *vecEnv) scalar(b *binding, e sqlparser.Expr, i int) (storage.Value, error) {
	ve.rowEnv.row = ve.b.Row(i)
	ve.ev.b = b
	return ve.ev.eval(e, &ve.rowEnv)
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
}

func (v *arithVec) eval(ve *vecEnv, active []int, out []storage.Value) error {
	m := ve.s.mark()
	n := ve.b.Len()
	lbuf, rbuf := ve.s.takeVals(n), ve.s.takeVals(n)
	if err := v.l.eval(ve, active, lbuf); err != nil {
		return err
	}
	if err := v.r.eval(ve, active, rbuf); err != nil {
		return err
	}
	for _, i := range active {
		x, err := arith(v.op, lbuf[i], rbuf[i])
		if err != nil {
			return err
		}
		out[i] = x
	}
	ve.s.release(m)
	return nil
}

// lazyVec evaluates an uncompilable value expression (UDF call, subquery,
// correlated reference) through the scalar evaluator, row by row, for the
// active rows only, its names as b bound them; err when they did not bind.
type lazyVec struct {
	expr sqlparser.Expr
	b    *binding
	err  error
}

func (v *lazyVec) eval(ve *vecEnv, active []int, out []storage.Value) error {
	if v.err != nil && len(active) > 0 {
		return v.err
	}
	for _, i := range active {
		x, err := ve.scalar(v.b, v.expr, i)
		if err != nil {
			return err
		}
		out[i] = x
	}
	return nil
}

// ---- predicate operators ----

// intPayload reports whether values of kind k compare with one another on
// their integer payload alone (storage.Compare's non-string, non-float case).
func intPayload(k storage.Kind) bool {
	switch k {
	case storage.KindInt, storage.KindBool, storage.KindTime, storage.KindDate:
		return true
	}
	return false
}

func cmpInts(op sqlparser.CmpOp, a, b int64) tri {
	switch op {
	case sqlparser.CmpEq:
		return triOfBool(a == b)
	case sqlparser.CmpNe:
		return triOfBool(a != b)
	case sqlparser.CmpLt:
		return triOfBool(a < b)
	case sqlparser.CmpLe:
		return triOfBool(a <= b)
	case sqlparser.CmpGt:
		return triOfBool(a > b)
	case sqlparser.CmpGe:
		return triOfBool(a >= b)
	}
	return triNull
}

// cmpConst is `col op literal`. Like every leaf over literals it reads the
// rows it is handed in place: after dispatch an arm sees a few rows of the
// batch, so neither the literal nor the column is materialised batch-wide.
type cmpConst struct {
	op  sqlparser.CmpOp
	col int
	c   storage.Value
}

func (p *cmpConst) eval(ve *vecEnv, active []int, out []tri) error {
	rows := ve.b.Rows()
	ints := intPayload(p.c.K)
	for _, i := range active {
		if v := &rows[i][p.col]; ints && intPayload(v.K) {
			out[i] = cmpInts(p.op, v.I, p.c.I)
		} else {
			out[i] = triOf(compareValues(p.op, *v, p.c))
		}
	}
	return nil
}

// cmpVec compares two value vectors under SQL three-valued semantics.
type cmpVec struct {
	op   sqlparser.CmpOp
	l, r vecVal
}

func (p *cmpVec) eval(ve *vecEnv, active []int, out []tri) error {
	m := ve.s.mark()
	n := ve.b.Len()
	lbuf, rbuf := ve.s.takeVals(n), ve.s.takeVals(n)
	if err := p.l.eval(ve, active, lbuf); err != nil {
		return err
	}
	if err := p.r.eval(ve, active, rbuf); err != nil {
		return err
	}
	for _, i := range active {
		out[i] = triOf(compareValues(p.op, lbuf[i], rbuf[i]))
	}
	ve.s.release(m)
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
type valPred struct{ v vecVal }

func (p *valPred) eval(ve *vecEnv, active []int, out []tri) error {
	m := ve.s.mark()
	buf := ve.s.takeVals(ve.b.Len())
	if err := p.v.eval(ve, active, buf); err != nil {
		return err
	}
	for _, i := range active {
		out[i] = triOf(buf[i])
	}
	ve.s.release(m)
	return nil
}

// andVec is the conjunction of its kids in evaluation order, with the row
// evaluator's short-circuit: a kid is evaluated only for the rows no
// earlier kid proved false. (Flattening nested ANDs keeps that set: a row
// reaches a conjunct exactly when none before it was false, however the
// ANDs were parenthesised.)
type andVec struct{ kids []vecPred }

func (p *andVec) eval(ve *vecEnv, active []int, out []tri) error {
	if err := p.kids[0].eval(ve, active, out); err != nil {
		return err
	}
	m := ve.s.mark()
	buf := ve.s.takeTris(ve.b.Len())
	act := ve.s.takeInts(len(active))[:0]
	for _, i := range active {
		if out[i] != triFalse {
			act = append(act, i)
		}
	}
	for _, kid := range p.kids[1:] {
		if len(act) == 0 {
			break
		}
		if err := kid.eval(ve, act, buf); err != nil {
			return err
		}
		keep := act[:0]
		for _, i := range act {
			if out[i] = triAnd(out[i], buf[i]); out[i] != triFalse {
				keep = append(keep, i)
			}
		}
		act = keep
	}
	ve.s.release(m)
	return nil
}

// dispatchOr is the n-ary disjunction operator — the shape the §5.3 rewrite
// produces, one arm per guard — and the engine's own Δ: instead of walking
// the arms for every tuple it looks the tuple's arms up by one column.
//
// At compile time every arm that can only be anything but FALSE for a few
// integer values of the dispatch column (`owner = 7 AND …`,
// `owner IN (3, 4) AND …`, `g AND (owner = 1 AND … OR owner = 2 AND …)`) is
// filed under those values; the arms that cannot are the tail. At run time
// a tuple is handed to the arms filed under its value, merged with the tail
// in original arm order, and every arm is evaluated over the tuples handed
// to it that no earlier arm proved true — or3's short-circuit. A tuple
// whose dispatch value is NULL or not an INT is handed to every arm: there
// an equality is NULL, not FALSE, and the arm's remaining conjuncts run
// under rowPasses semantics.
//
// Arms compile the first time a batch selects them, so building the
// operator costs a look at each arm's leading conjunct, and an execution
// that fetches five tuples compiles five arms' worth of expression. The
// compiled arm is published with a compare-and-swap: concurrent users of a
// shared program may both compile it, and agree on one.
type dispatchOr struct {
	vc   *vecCompiler
	arms []lazyArm
	// col is the dispatch column's schema offset; -1 when no arm is keyed
	// and the operator is the plain left-to-right walk over tail.
	col int
	// keys are the distinct dispatch values in ascending order; keys[j]'s
	// arms are lists[offs[j]:offs[j+1]], ascending. The stretch of lists
	// from offs[len(keys)] on is every keyed arm, for tuples without an
	// integer dispatch value.
	keys  []int64
	offs  []int
	lists []int
	// tail are the keyless arms, ascending; keyless[a] says arm a is one.
	tail    []int
	keyless []bool
}

type lazyArm struct {
	expr sqlparser.Expr
	pred atomic.Pointer[vecPred]
}

func (p *dispatchOr) arm(a int) vecPred {
	la := &p.arms[a]
	if c := la.pred.Load(); c != nil {
		return *c
	}
	pred := p.vc.compilePred(la.expr)
	la.pred.CompareAndSwap(nil, &pred)
	return *la.pred.Load()
}

// armsFor returns the stretch of lists filed under key k (empty if none).
func (p *dispatchOr) armsFor(k int64) (lo, hi int) {
	j, ok := slices.BinarySearch(p.keys, k)
	if !ok {
		return 0, 0
	}
	return p.offs[j], p.offs[j+1]
}

func (p *dispatchOr) eval(ve *vecEnv, active []int, out []tri) error {
	for _, i := range active {
		out[i] = triFalse
	}
	s := &ve.s
	m := s.mark()
	buf := s.takeTris(ve.b.Len())
	// act is what a tail arm sees: the active rows not yet proven true,
	// compacted as arms are evaluated.
	act := append(s.takeInts(len(active))[:0], active...)
	order := p.tail
	var rows, end []int
	if p.col >= 0 {
		order, rows, end = p.bucket(ve, active)
	}
	start, left := 0, len(active)
	for _, a := range order {
		if left == 0 {
			break
		}
		var sel []int
		if p.keyless[a] {
			sel = act[:0]
			for _, i := range act {
				if out[i] != triTrue {
					sel = append(sel, i)
				}
			}
			act = sel
		} else {
			sel = rows[start:start]
			for _, i := range rows[start:end[a]] {
				if out[i] != triTrue {
					sel = append(sel, i)
				}
			}
			start = end[a]
		}
		if len(sel) == 0 {
			continue
		}
		if err := p.arm(a).eval(ve, sel, buf); err != nil {
			return err
		}
		for _, i := range sel {
			switch buf[i] { // or3 with a value that is not TRUE
			case triTrue:
				out[i] = triTrue
				left--
			case triNull:
				out[i] = triNull
			}
		}
	}
	s.release(m)
	return nil
}

// bucket hands the active rows to the keyed arms their dispatch values
// select: order is every arm with a row to see plus the tail, ascending;
// arm a's rows, in batch order, are rows[end[b]:end[a]] for b the keyed arm
// before it in order (0 for the first). All three live in ve's scratch.
func (p *dispatchOr) bucket(ve *vecEnv, active []int) (order, rows, end []int) {
	s := &ve.s
	brows := ve.b.Rows()
	spans := s.takeInts(2 * len(active)) // per active row: its stretch of lists
	end = s.takeInts(len(p.arms))
	clear(end) // counts first, offsets after
	order = s.takeInts(len(p.arms))[:0]
	total := 0
	var last int64
	lo, hi := 0, 0
	cached := false
	for j, i := range active {
		v := &brows[i][p.col]
		rlo, rhi := p.offs[len(p.keys)], len(p.lists)
		if v.K == storage.KindInt {
			// Stored by owner, a batch repeats its key for long runs.
			if !cached || v.I != last {
				last, cached = v.I, true
				lo, hi = p.armsFor(v.I)
			}
			rlo, rhi = lo, hi
		}
		spans[2*j], spans[2*j+1] = rlo, rhi
		for _, a := range p.lists[rlo:rhi] {
			if end[a] == 0 {
				order = append(order, a)
			}
			end[a]++
		}
		total += rhi - rlo
	}
	order = append(order, p.tail...)
	slices.Sort(order)
	off := 0
	for _, a := range order {
		n := end[a]
		end[a] = off
		off += n
	}
	rows = s.takeInts(total)
	for j, i := range active {
		for _, a := range p.lists[spans[2*j]:spans[2*j+1]] {
			rows[end[a]] = i
			end[a]++
		}
	}
	return order, rows, end
}

// notVec negates under 3VL.
type notVec struct{ kid vecPred }

func (p *notVec) eval(ve *vecEnv, active []int, out []tri) error {
	if err := p.kid.eval(ve, active, out); err != nil {
		return err
	}
	for _, i := range active {
		out[i] = triNot(out[i])
	}
	return nil
}

// betweenConst is `col [NOT] BETWEEN literal AND literal`.
type betweenConst struct {
	col    int
	lo, hi storage.Value
	not    bool
}

func (p *betweenConst) eval(ve *vecEnv, active []int, out []tri) error {
	rows := ve.b.Rows()
	ints := intPayload(p.lo.K) && intPayload(p.hi.K)
	for _, i := range active {
		var t tri
		if v := &rows[i][p.col]; ints && intPayload(v.K) {
			t = triOfBool(v.I >= p.lo.I && v.I <= p.hi.I)
		} else {
			t = triAnd(triOf(compareValues(sqlparser.CmpGe, *v, p.lo)), triOf(compareValues(sqlparser.CmpLe, *v, p.hi)))
		}
		if p.not {
			t = triNot(t)
		}
		out[i] = t
	}
	return nil
}

// betweenVec evaluates E BETWEEN Lo AND Hi; like the row evaluator it
// computes all three operands, then and3's the bound comparisons.
type betweenVec struct {
	e, lo, hi vecVal
	not       bool
}

func (p *betweenVec) eval(ve *vecEnv, active []int, out []tri) error {
	m := ve.s.mark()
	n := ve.b.Len()
	ebuf, lobuf, hibuf := ve.s.takeVals(n), ve.s.takeVals(n), ve.s.takeVals(n)
	if err := p.e.eval(ve, active, ebuf); err != nil {
		return err
	}
	if err := p.lo.eval(ve, active, lobuf); err != nil {
		return err
	}
	if err := p.hi.eval(ve, active, hibuf); err != nil {
		return err
	}
	for _, i := range active {
		ge := triOf(compareValues(sqlparser.CmpGe, ebuf[i], lobuf[i]))
		le := triOf(compareValues(sqlparser.CmpLe, ebuf[i], hibuf[i]))
		t := triAnd(ge, le)
		if p.not {
			t = triNot(t)
		}
		out[i] = t
	}
	ve.s.release(m)
	return nil
}

// inMember folds one IN-list member into a row's running membership
// (false = miss so far, true = hit, null = miss with a NULL member seen).
func inMember(state tri, probe, member storage.Value) tri {
	switch {
	case state == triTrue:
		return triTrue
	case member.IsNull():
		return triNull
	case storage.Equal(probe, member):
		return triTrue
	}
	return state
}

// inConst is `col [NOT] IN (literals)`, the list a memberSet built at
// compile time.
type inConst struct {
	col int
	set *memberSet
	not bool
}

func (p *inConst) eval(ve *vecEnv, active []int, out []tri) error {
	rows := ve.b.Rows()
	for _, i := range active {
		t := p.set.has(rows[i][p.col])
		if p.not {
			t = triNot(t)
		}
		out[i] = t
	}
	return nil
}

// inVec evaluates E IN (list) over arbitrary member expressions. A NULL
// probe is NULL and its members are not evaluated, like the row path.
type inVec struct {
	e    vecVal
	list []vecVal
	not  bool
}

func (p *inVec) eval(ve *vecEnv, active []int, out []tri) error {
	m := ve.s.mark()
	n := ve.b.Len()
	ebuf, mbuf := ve.s.takeVals(n), ve.s.takeVals(n)
	if err := p.e.eval(ve, active, ebuf); err != nil {
		return err
	}
	act := ve.s.takeInts(len(active))[:0]
	for _, i := range active {
		if ebuf[i].IsNull() {
			out[i] = triNull
			continue
		}
		out[i] = triFalse
		act = append(act, i)
	}
	// The row evaluator materialises every member before scanning, so the
	// vector path evaluates each member expression for all non-NULL probes.
	for _, member := range p.list {
		if len(act) == 0 {
			break
		}
		if err := member.eval(ve, act, mbuf); err != nil {
			return err
		}
		for _, i := range act {
			out[i] = inMember(out[i], ebuf[i], mbuf[i])
		}
	}
	if p.not {
		for _, i := range act { // NULL probes stay NULL: not3(NULL) = NULL
			out[i] = triNot(out[i])
		}
	}
	ve.s.release(m)
	return nil
}

// isNullVec evaluates E IS [NOT] NULL — never NULL itself.
type isNullVec struct {
	e   vecVal
	not bool
}

func (p *isNullVec) eval(ve *vecEnv, active []int, out []tri) error {
	if c, ok := p.e.(*colVec); ok {
		rows := ve.b.Rows()
		for _, i := range active {
			out[i] = triOfBool(rows[i][c.col].IsNull() != p.not)
		}
		return nil
	}
	m := ve.s.mark()
	buf := ve.s.takeVals(ve.b.Len())
	if err := p.e.eval(ve, active, buf); err != nil {
		return err
	}
	for _, i := range active {
		out[i] = triOfBool(buf[i].IsNull() != p.not)
	}
	ve.s.release(m)
	return nil
}

// lazyTri evaluates an uncompilable predicate through the scalar evaluator
// for the active rows only — the rowPasses fallback at leaf granularity —
// its names as b bound them; err when they did not bind.
type lazyTri struct {
	expr sqlparser.Expr
	b    *binding
	err  error
}

func (p *lazyTri) eval(ve *vecEnv, active []int, out []tri) error {
	if p.err != nil && len(active) > 0 {
		return p.err
	}
	for _, i := range active {
		v, err := ve.scalar(p.b, p.expr, i)
		if err != nil {
			return err
		}
		out[i] = triOf(v)
	}
	return nil
}

// ---- compilation ----

// vecCompiler translates scan conjuncts into vector operators over rows
// laid out as frame, their names as b bound them, and is the resolver every
// part of a Conjunct reads its columns through. A registered conjunct,
// which no bind pass walks, compiles with no b: evaluated on
// its table's rows alone, outside a subquery it can only name a column of
// frame, found as it compiles, and a lazy leaf's names are bound against
// frame as the leaf is built — per compiled arm, not per guard state. The
// compiler holds nothing else, so dispatchOr may compile arms through it
// from any goroutine.
type vecCompiler struct {
	db    *DB
	b     *binding
	frame *RelSchema
}

// column returns the slot e reads when it is a column of the scan's own row.
func (vc *vecCompiler) column(e sqlparser.Expr) (int, bool) {
	c, ok := e.(*sqlparser.ColRef)
	if !ok {
		return 0, false
	}
	if vc.b == nil {
		i, err := vc.frame.Resolve(c.Table, c.Column)
		return i, err == nil
	}
	r, ok := vc.b.cols[c]
	return int(r.slot), ok && r.up == 0
}

// leaf returns the binding a lazy leaf evaluates e with: the compiler's, or
// e's own against frame when the compiler has none.
func (vc *vecCompiler) leaf(e sqlparser.Expr) (*binding, error) {
	if vc.b != nil {
		return vc.b, nil
	}
	return vc.db.bindExpr(e, vc.frame)
}

func (vc *vecCompiler) lazyVal(e sqlparser.Expr) vecVal {
	b, err := vc.leaf(e)
	return &lazyVec{expr: e, b: b, err: err}
}

func (vc *vecCompiler) lazyPred(e sqlparser.Expr) vecPred {
	b, err := vc.leaf(e)
	return &lazyTri{expr: e, b: b, err: err}
}

func literal(e sqlparser.Expr) (storage.Value, bool) {
	l, ok := e.(*sqlparser.Literal)
	if !ok {
		return storage.Null, false
	}
	return l.Val, true
}

// literals returns the values of an all-literal expression list.
func literals(list []sqlparser.Expr) ([]storage.Value, bool) {
	out := make([]storage.Value, len(list))
	for i, e := range list {
		v, ok := literal(e)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// compileVal translates a value expression; anything unknown becomes a
// lazy leaf.
func (vc *vecCompiler) compileVal(e sqlparser.Expr) vecVal {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &constVec{v: x.Val}
	case *sqlparser.ColRef:
		if i, ok := vc.column(x); ok {
			return &colVec{col: i}
		}
		// A correlated reference reads the enclosing row, through the
		// env chain, exactly like the row path.
		return vc.lazyVal(e)
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			return &arithVec{op: x.Op, l: vc.compileVal(x.L), r: vc.compileVal(x.R)}
		}
		return vc.lazyVal(e)
	default:
		// UDF calls, subqueries: scalar evaluation per active row.
		return vc.lazyVal(e)
	}
}

// compilePred translates a predicate expression; anything unknown becomes
// a lazy leaf.
func (vc *vecCompiler) compilePred(e sqlparser.Expr) vecPred {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &constTri{t: triOf(x.Val)}
	case *sqlparser.CompareExpr:
		if col, ok := vc.column(x.L); ok {
			if c, ok := literal(x.R); ok {
				return &cmpConst{op: x.Op, col: col, c: c}
			}
		} else if col, ok := vc.column(x.R); ok {
			if c, ok := literal(x.L); ok {
				return &cmpConst{op: x.Op.Flip(), col: col, c: c}
			}
		}
		return &cmpVec{op: x.Op, l: vc.compileVal(x.L), r: vc.compileVal(x.R)}
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			conjs := sqlparser.Conjuncts(e)
			and := &andVec{kids: make([]vecPred, len(conjs))}
			for i, cj := range conjs {
				and.kids[i] = vc.compilePred(cj)
			}
			return and
		case sqlparser.OpOr:
			return vc.compileOr(e)
		}
		return &valPred{v: vc.compileVal(e)}
	case *sqlparser.NotExpr:
		return &notVec{kid: vc.compilePred(x.E)}
	case *sqlparser.BetweenExpr:
		if col, ok := vc.column(x.E); ok {
			lo, okLo := literal(x.Lo)
			hi, okHi := literal(x.Hi)
			if okLo && okHi {
				return &betweenConst{col: col, lo: lo, hi: hi, not: x.Not}
			}
		}
		return &betweenVec{e: vc.compileVal(x.E), lo: vc.compileVal(x.Lo), hi: vc.compileVal(x.Hi), not: x.Not}
	case *sqlparser.InExpr:
		if x.Sub != nil {
			return vc.lazyPred(e)
		}
		if col, ok := vc.column(x.E); ok {
			if list, ok := literals(x.List); ok {
				return &inConst{col: col, set: newMemberSet(list), not: x.Not}
			}
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
		return vc.lazyPred(e)
	}
}

// keyArm files one arm under one dispatch value.
type keyArm struct {
	key int64
	arm int
}

// compileOr builds the dispatch operator over e's disjuncts.
func (vc *vecCompiler) compileOr(e sqlparser.Expr) vecPred {
	disj := sqlparser.Disjuncts(e)
	p := &dispatchOr{vc: vc, arms: make([]lazyArm, len(disj)), keyless: make([]bool, len(disj)), col: -1}
	for a, d := range disj {
		p.arms[a].expr = d
	}
	var pairs []keyArm
	var buf []storage.Value
	if col := vc.dispatchColumn(disj, &buf); col >= 0 {
		pairs = make([]keyArm, 0, len(disj))
		for a, d := range disj {
			var ok bool
			if pairs, ok = vc.armKeys(d, col, a, pairs, &buf); !ok {
				p.keyless[a] = true
			}
		}
		slices.SortFunc(pairs, func(x, y keyArm) int {
			return cmp.Or(cmp.Compare(x.key, y.key), cmp.Compare(x.arm, y.arm))
		})
		pairs = slices.Compact(pairs)
		p.col = col
	}
	// Under fewer than two keys every tuple that gets here selects the same
	// arms — a partition nested inside its own owner's guard — and the
	// plain walk does the same work without the bucketing.
	if len(pairs) == 0 || pairs[0].key == pairs[len(pairs)-1].key {
		p.col = -1
		for a := range p.arms {
			p.keyless[a] = true
			p.tail = append(p.tail, a)
		}
		return p
	}
	p.lists = make([]int, 0, len(pairs)+len(disj))
	for i, pr := range pairs {
		if i == 0 || pr.key != pairs[i-1].key {
			p.keys = append(p.keys, pr.key)
			p.offs = append(p.offs, len(p.lists))
		}
		p.lists = append(p.lists, pr.arm)
	}
	p.offs = append(p.offs, len(p.lists))
	for a, keyless := range p.keyless {
		if keyless {
			p.tail = append(p.tail, a)
		} else {
			p.lists = append(p.lists, a)
		}
	}
	return p
}

// intKeys recognises a dispatch key, an equality or IN sarg whose points
// are all INT, and returns its column and points. The points are cut from
// buf, which the next call reuses.
func (vc *vecCompiler) intKeys(e sqlparser.Expr, buf *[]storage.Value) (col int, keys []storage.Value, ok bool) {
	*buf = (*buf)[:0]
	s, ok := vc.sargOf(e, buf)
	if !ok || s.isRange || len(s.points) == 0 {
		return 0, nil, false
	}
	for _, p := range s.points {
		if p.K != storage.KindInt {
			return 0, nil, false
		}
	}
	return s.slot, s.points, true
}

// inOrder calls fn with the operands of e's chain of op (AND or OR) in
// evaluation order, until fn returns false; it reports whether fn never did.
func inOrder(e sqlparser.Expr, op sqlparser.BinOp, fn func(sqlparser.Expr) bool) bool {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == op {
		return inOrder(b.L, op, fn) && inOrder(b.R, op, fn)
	}
	return fn(e)
}

// dispatchColumn picks the column a disjunction dispatches on: the one the
// most arms lead with an equality on; when no arm leads with one, the first
// column the first arm is keyed on through a nested disjunction. -1: none.
// It only chooses; keysOn then derives every arm's points on the choice.
// Points are cut from buf.
func (vc *vecCompiler) dispatchColumn(disj []sqlparser.Expr, buf *[]storage.Value) int {
	tally := make([]int, len(vc.frame.Cols))
	best := -1
	for _, d := range disj {
		inOrder(d, sqlparser.OpAnd, func(cj sqlparser.Expr) bool {
			col, _, ok := vc.intKeys(cj, buf)
			if !ok {
				return vc.pureTotalPredicate(cj)
			}
			if tally[col]++; best < 0 || tally[col] > tally[best] {
				best = col
			}
			return false
		})
	}
	if best >= 0 || len(disj) == 0 {
		return best
	}
	for col := range len(vc.frame.Cols) {
		if _, ok := vc.armKeys(disj[0], col, 0, nil, buf); ok {
			return col
		}
	}
	return -1
}

// keysOn derives the arm's point set on col: ok means that for a tuple
// whose col value is an INT outside the appended keys, the row evaluator
// finds the arm FALSE without reaching anything that can fail or have an
// effect — so not evaluating the arm for that tuple changes nothing.
//
// Conjuncts are taken in evaluation order. An equality or IN list over INT
// literals on col gives the points. So does a nested disjunction all of
// whose disjuncts have points on col (their union): outside it every
// disjunct is FALSE by the same argument, hence the disjunction, hence the
// arm. The walk stops at the first conjunct that is not pure and total —
// an equality the row evaluator would only reach after a UDF call or a
// possibly-erroring expression licenses nothing.
func (vc *vecCompiler) keysOn(arm sqlparser.Expr, col, a int, pairs []keyArm) ([]keyArm, bool) {
	var buf []storage.Value
	return vc.armKeys(arm, col, a, pairs, &buf)
}

// armKeys is keysOn cutting points from buf, which one compile reuses
// across its arms.
func (vc *vecCompiler) armKeys(arm sqlparser.Expr, col, a int, pairs []keyArm, buf *[]storage.Value) ([]keyArm, bool) {
	found := false
	inOrder(arm, sqlparser.OpAnd, func(cj sqlparser.Expr) bool {
		if c, keys, ok := vc.intKeys(cj, buf); ok {
			if c != col {
				return true
			}
			for _, k := range keys {
				pairs = append(pairs, keyArm{k.I, a})
			}
			found = true
			return false
		}
		if b, ok := cj.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpOr {
			mark := len(pairs)
			if inOrder(cj, sqlparser.OpOr, func(d sqlparser.Expr) bool {
				var ok bool
				pairs, ok = vc.armKeys(d, col, a, pairs, buf)
				return ok
			}) {
				found = true
				return false
			}
			pairs = pairs[:mark]
		}
		return vc.pureTotalPredicate(cj)
	})
	return pairs, found
}

// pureTotalPredicate reports whether evaluating e can neither error nor
// have side effects for any row: comparisons, BETWEEN, IN lists, IS NULL
// and logical combinations over bound columns and literals only. UDF calls,
// subqueries and arithmetic (which errors on non-numeric kinds) all
// disqualify. Skipping a disjunction
// arm is only sound when every conjunct the row evaluator would have
// reached first is pure and total — otherwise the skip would suppress an
// error or a UDF invocation the row path performs.
func (vc *vecCompiler) pureTotalPredicate(e sqlparser.Expr) bool {
	pure := true
	sqlparser.Walk(e, false, func(x sqlparser.Expr) {
		switch n := x.(type) {
		case *sqlparser.Literal, *sqlparser.CompareExpr, *sqlparser.BetweenExpr,
			*sqlparser.IsNullExpr, *sqlparser.NotExpr, *sqlparser.ColRef:
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

// vecProgram is the compiled batch filter for one base-table access: one
// predicate per WHERE conjunct, applied in order with rows dropped as soon
// as a conjunct is not definitely true (rowPasses semantics).
type vecProgram struct {
	preds []vecPred
}

// compileVecProgram takes the binding's conjuncts' compiled predicates —
// a registered conjunct's as compiled once for its guard state; nil when
// there is nothing to filter.
func compileVecProgram(tb *tableBinding) *vecProgram {
	if len(tb.conjs) == 0 {
		return nil
	}
	p := &vecProgram{preds: make([]vecPred, len(tb.conjs))}
	for i, c := range tb.conjs {
		p.preds[i] = c.program()
	}
	return p
}

// compileScanFilter is how a base-table access of db obtains its filter:
// the compiled program, unless a test has put the rowPasses reference in
// its place for this DB (export_test.go) — in place of the whole filter,
// shared conjuncts included.
func (db *DB) compileScanFilter(tb *tableBinding) *vecProgram {
	if ref := db.rowReference.Load(); ref != nil {
		return (*ref)(tb)
	}
	return compileVecProgram(tb)
}

// run filters ve's batch: every selected row satisfies all conjuncts, with
// three-valued logic, short-circuits, and fallback evaluation matching
// rowPasses row for row. ve.poll is honoured between conjuncts.
func (p *vecProgram) run(ve *vecEnv) error {
	n := ve.b.Len()
	ve.s.release(scratchMark{})
	active := ve.s.takeInts(n)
	for i := range active {
		active[i] = i
	}
	out := ve.s.takeTris(n)
	for _, pred := range p.preds {
		if ve.poll != nil {
			if err := ve.poll(); err != nil {
				return err
			}
		}
		if len(active) == 0 {
			return nil
		}
		if err := pred.eval(ve, active, out); err != nil {
			return err
		}
		keep := active[:0]
		for _, i := range active {
			if out[i] == triTrue {
				keep = append(keep, i)
			} else {
				ve.b.Sel[i] = false
			}
		}
		active = keep
	}
	return nil
}
