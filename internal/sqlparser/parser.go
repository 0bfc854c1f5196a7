package sqlparser

import (
	"fmt"
	"strconv"

	"github.com/sieve-db/sieve/internal/storage"
)

// The parser is a trust boundary — the server hands it whatever a client
// sent — so what it will work on is bounded, and anything beyond is an
// ordinary parse error. The limits sit far above what the rewriter emits
// (a guarded rewrite with thousands of inlined arms is a flat disjunction,
// a few levels deep and tens of KiB long).
const (
	// MaxStatementBytes is the longest statement text accepted.
	MaxStatementBytes = 512 << 10
	// MaxNestingDepth is how deep parentheses, subqueries, NOT and unary
	// minus may nest: the parser recurses once per level.
	MaxNestingDepth = 200
)

// newParser lexes input, refusing over-long text before touching it.
func newParser(input string) (*parser, error) {
	if len(input) > MaxStatementBytes {
		return nil, fmt.Errorf("sql: statement is %d bytes, limit %d", len(input), MaxStatementBytes)
	}
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks, input: input}, nil
}

// Parse parses a single SELECT statement (optionally prefixed by WITH).
func Parse(input string) (*SelectStmt, error) {
	p, err := newParser(input)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

// MustParse parses or panics; for fixed statements in tests and generators.
func MustParse(input string) *SelectStmt {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseExpr parses a standalone expression (used to load policy object
// conditions whose values are stored as SQL text in rOC, §5.1).
func ParseExpr(input string) (Expr, error) {
	p, err := newParser(input)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return e, nil
}

type parser struct {
	toks  []token
	pos   int
	input string
	nArgs int // placeholders seen so far; assigns 1-based ordinals
	depth int // current nesting, see nest
}

// nest enters one nesting level, failing past MaxNestingDepth. Every
// production that recurses — a statement, parseNot (which a parenthesis
// reaches again), a unary minus — calls it and defers unnest.
func (p *parser) nest() error {
	p.depth++
	if p.depth > MaxNestingDepth {
		return p.errf("nested deeper than %d levels", MaxNestingDepth)
	}
	return nil
}

func (p *parser) unnest() { p.depth-- }

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) atKeyword(kw string) bool { return p.at(tokKeyword, kw) }

func (p *parser) advance() token {
	t := p.cur()
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.advance(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s at offset %d", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) parseSelectStmt() (*SelectStmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	stmt := &SelectStmt{}
	if p.accept(tokKeyword, "WITH") {
		for {
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			stmt.With = append(stmt.With, CTE{Name: name.text, Select: sub})
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	core, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	stmt.Body = core
	for {
		switch {
		case p.atKeyword("UNION"):
			p.advance()
			all := p.accept(tokKeyword, "ALL")
			arm, err := p.parseSelectCore()
			if err != nil {
				return nil, err
			}
			stmt.Ops = append(stmt.Ops, SetOp{Kind: SetUnion, All: all, Core: arm})
		case p.atKeyword("MINUS") || p.atKeyword("EXCEPT"):
			p.advance()
			arm, err := p.parseSelectCore()
			if err != nil {
				return nil, err
			}
			stmt.Ops = append(stmt.Ops, SetOp{Kind: SetMinus, Core: arm})
		default:
			return stmt, nil
		}
	}
}

func (p *parser) parseSelectCore() (*SelectCore, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{Limit: -1}
	core.Distinct = p.accept(tokKeyword, "DISTINCT")
	if p.accept(tokSymbol, "*") {
		core.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				alias, err := p.expect(tokIdent, "")
				if err != nil {
					return nil, err
				}
				item.Alias = alias.text
			} else if p.at(tokIdent, "") {
				item.Alias = p.advance().text
			}
			core.Items = append(core.Items, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		core.From = append(core.From, ref)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.atKeyword("GROUP") {
		p.advance()
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	if p.atKeyword("ORDER") {
		p.advance()
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			core.OrderBy = append(core.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokInt, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		core.Limit = n
		switch {
		case p.accept(tokKeyword, "OFFSET"):
			t, err := p.expect(tokInt, "")
			if err != nil {
				return nil, err
			}
			m, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return nil, p.errf("bad OFFSET %q", t.text)
			}
			core.Offset = m
		case p.accept(tokSymbol, ","):
			// MySQL's LIMIT offset, count form.
			t, err := p.expect(tokInt, "")
			if err != nil {
				return nil, err
			}
			m, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return nil, p.errf("bad LIMIT count %q", t.text)
			}
			core.Offset = n
			core.Limit = m
		}
	}
	return core, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	var ref TableRef
	if p.accept(tokSymbol, "(") {
		sub, err := p.parseSelectStmt()
		if err != nil {
			return ref, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return ref, err
		}
		ref.Subquery = sub
	} else {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return ref, err
		}
		ref.Name = name.text
	}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.expect(tokIdent, "")
		if err != nil {
			return ref, err
		}
		ref.Alias = alias.text
	} else if p.at(tokIdent, "") {
		ref.Alias = p.advance().text
	}
	if ref.Subquery != nil && ref.Alias == "" {
		return ref, p.errf("derived table requires an alias")
	}
	// Index hints: FORCE INDEX (a, b) | USE INDEX () | USE INDEX (a).
	if p.atKeyword("FORCE") || p.atKeyword("USE") {
		kind := HintForce
		if p.cur().text == "USE" {
			kind = HintUse
		}
		p.advance()
		if _, err := p.expect(tokKeyword, "INDEX"); err != nil {
			return ref, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return ref, err
		}
		hint := &IndexHint{Kind: kind}
		for !p.at(tokSymbol, ")") {
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return ref, err
			}
			hint.Indexes = append(hint.Indexes, name.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return ref, err
		}
		if kind == HintForce && len(hint.Indexes) == 0 {
			return ref, p.errf("FORCE INDEX requires at least one index")
		}
		ref.Hint = hint
	}
	return ref, nil
}

// Expression precedence: OR < AND < NOT < predicate < additive <
// multiplicative < unary < primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := false
	if p.atKeyword("NOT") && (p.peek().text == "BETWEEN" || p.peek().text == "IN") {
		p.advance()
		not = true
	}
	switch {
	case p.at(tokSymbol, "=") || p.at(tokSymbol, "!=") || p.at(tokSymbol, "<>") ||
		p.at(tokSymbol, "<") || p.at(tokSymbol, "<=") || p.at(tokSymbol, ">") || p.at(tokSymbol, ">="):
		opText := p.advance().text
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var op CmpOp
		switch opText {
		case "=":
			op = CmpEq
		case "!=", "<>":
			op = CmpNe
		case "<":
			op = CmpLt
		case "<=":
			op = CmpLe
		case ">":
			op = CmpGt
		case ">=":
			op = CmpGe
		}
		return &CompareExpr{Op: op, L: l, R: r}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		in := &InExpr{E: l, Not: not}
		if p.atKeyword("SELECT") || p.atKeyword("WITH") {
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			in.Sub = sub
		} else {
			for {
				item, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, item)
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.accept(tokKeyword, "IS"):
		isNot := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: isNot}, nil
	}
	if not {
		return nil, p.errf("dangling NOT")
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.at(tokSymbol, "+"):
			op = OpAdd
		case p.at(tokSymbol, "-"):
			op = OpSub
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.at(tokSymbol, "*"):
			op = OpMul
		case p.at(tokSymbol, "/"):
			op = OpDiv
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negated numeric literals so -3 round-trips as a literal.
		if lit, ok := e.(*Literal); ok {
			switch lit.Val.K {
			case storage.KindInt:
				return Lit(storage.NewInt(-lit.Val.I)), nil
			case storage.KindFloat:
				return Lit(storage.NewFloat(-lit.Val.F)), nil
			}
		}
		return &BinaryExpr{Op: OpSub, L: Lit(storage.NewInt(0)), R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return Lit(storage.NewInt(n)), nil
	case t.kind == tokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return Lit(storage.NewFloat(f)), nil
	case t.kind == tokString:
		p.advance()
		return Lit(storage.NewString(t.text)), nil
	case t.kind == tokKeyword:
		switch t.text {
		case "TRUE":
			p.advance()
			return Lit(storage.NewBool(true)), nil
		case "FALSE":
			p.advance()
			return Lit(storage.NewBool(false)), nil
		case "NULL":
			p.advance()
			return Lit(storage.Null), nil
		case "TIME":
			p.advance()
			s, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			v, err := storage.TimeOfDay(s.text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return Lit(v), nil
		case "DATE":
			p.advance()
			s, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			v, err := storage.ParseDate(s.text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return Lit(v), nil
		case "EXISTS":
			p.advance()
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Select: sub}, nil
		}
		return nil, p.errf("unexpected keyword %q", t.text)
	case t.kind == tokIdent:
		// function call, qualified column, or bare column
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			return p.parseFuncCall()
		}
		p.advance()
		if p.accept(tokSymbol, ".") {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return Col(t.text, col.text), nil
		}
		return Col("", t.text), nil
	case t.kind == tokSymbol && t.text == "?":
		p.advance()
		p.nArgs++
		return &Placeholder{Idx: p.nArgs}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.advance()
		if p.atKeyword("SELECT") || p.atKeyword("WITH") {
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Select: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := p.advance().text
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.accept(tokSymbol, "*") {
		fc.Star = true
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	fc.Distinct = p.accept(tokKeyword, "DISTINCT")
	if !p.at(tokSymbol, ")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, a)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
