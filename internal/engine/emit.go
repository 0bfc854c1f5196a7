package engine

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// This file is the middleware's exit door: it turns the rewritten AST into
// SQL an *external* DBMS executes, which is how the paper's SIEVE actually
// deploys (§5.3, §5.5) — the embedded engine only stands in for MySQL and
// PostgreSQL inside this repository. Each Emitter serializes guard
// disjunctions, Δ owner filters, constant-FALSE default-deny and WITH-bound
// single-use bodies into the target dialect: identifier quoting, placeholder
// style, LIMIT/OFFSET form, and — the part the paper's experiments hinge on
// — dialect-specific guard framing.

// Emission is one rendered statement: executable SQL for the target
// dialect plus the bound-argument list its placeholders reference, in
// placeholder order ($1 ↔ Args[0]).
type Emission struct {
	Dialect string
	SQL     string
	// Args holds the constants lifted out of the statement, in placeholder
	// order. Empty for the sieve dialect, which inlines every literal.
	Args []storage.Value
}

// GuardArm is one arm of a guarded disjunction: the indexed column that can
// drive it and the full arm expression (guard predicate ∧ inlined partition
// or Δ call).
type GuardArm struct {
	// Col is the arm's index-backed column (the guard's attribute).
	Col string
	// Expr is the complete arm expression, qualified by the relation name.
	Expr sqlparser.Expr
	// Delta reports whether the arm checks its partition through the Δ UDF
	// rather than inlined conditions.
	Delta bool
}

// GuardedCTE records what the middleware put into one rewritten WITH entry.
// Frame builds the entry's body from it, for the engine and for every
// emitter; MySQL alone reframes it under IndexGuards, as one UNION arm per
// guard (it cannot OR-combine index scans), while PostgreSQL keeps the
// OR-of-ANDs and relies on BitmapOr (§5.5, Experiment 4).
type GuardedCTE struct {
	// Name is the WITH-bound name, e.g. "WiFi_Dataset_sieve".
	Name string
	// Relation is the protected base relation the CTE projects.
	Relation string
	// Strategy is the planner's §5.5 choice: "LinearScan", "IndexQuery" or
	// "IndexGuards".
	Strategy string
	// QueryIndex is the driving column under IndexQuery.
	QueryIndex string
	// DefaultDeny marks a no-applicable-policy rewrite: the body's WHERE is
	// constant FALSE, Arms is empty and Guard nil.
	DefaultDeny bool
	// Arms are the guard disjunction's arms, in emission order.
	Arms []GuardArm
	// Guard is the disjunction of Arms, nil under default deny. It is the
	// guard state's own tree, shared by every rewrite over the state: the
	// engine's shared filter (DB.ShareFilter) is keyed by it.
	Guard sqlparser.Expr
	// QueryConjs are the outer query's pushed single-table conjuncts: the
	// leakproof ones conjoined in front of the disjunction, the rest after.
	QueryConjs []sqlparser.Expr
}

// Frame builds g's WITH body, the one framing the embedded engine runs and
// every emitter prints (but MySQL's UNION per guard):
//
//	SELECT * FROM relation [hint]
//	WHERE <leakproof query conjuncts> AND (<guard>) AND <the other query conjuncts>
//
// with constant FALSE for the guard under default deny (sqlparser.Guarded:
// a query conjunct that can raise never runs on a denied tuple). The
// leakproof query predicates sit in front of the guard disjunction: under
// IndexQuery/LinearScan they drive (or stream through) the scan; under
// IndexGuards the forced guard indexes drive it and the predicates are
// evaluated once per surviving tuple rather than once per arm (the §5.6
// listing inlines them into every arm: same semantics, more per-tuple
// evaluations). With hints, the relation carries the strategy's §5.5 hint:
// FORCE INDEX on the guard columns under IndexGuards, on the query's index
// under IndexQuery, USE INDEX () under LinearScan. Frame allocates only the
// nodes around g's expressions, which it never mutates.
func (g *GuardedCTE) Frame(hints bool) *sqlparser.SelectStmt {
	guard := g.Guard
	if guard == nil {
		guard = sqlparser.Lit(storage.NewBool(false))
	}
	ref := sqlparser.TableRef{Name: g.Relation}
	if hints {
		ref.Hint = g.hint()
	}
	return &sqlparser.SelectStmt{Body: &sqlparser.SelectCore{
		Star:  true,
		From:  []sqlparser.TableRef{ref},
		Where: sqlparser.Guarded(g.QueryConjs, guard),
		Limit: -1,
	}}
}

// hint is the index hint g's strategy asks for, nil if none: the guard
// columns are the arms' distinct columns, sorted.
func (g *GuardedCTE) hint() *sqlparser.IndexHint {
	switch g.Strategy {
	case "IndexGuards":
		var cols []string
		for _, a := range g.Arms {
			if !slices.Contains(cols, a.Col) {
				cols = append(cols, a.Col)
			}
		}
		if len(cols) > 0 {
			slices.Sort(cols)
			return &sqlparser.IndexHint{Kind: sqlparser.HintForce, Indexes: cols}
		}
	case "IndexQuery":
		if g.QueryIndex != "" {
			return &sqlparser.IndexHint{Kind: sqlparser.HintForce, Indexes: []string{g.QueryIndex}}
		}
	case "LinearScan":
		return &sqlparser.IndexHint{Kind: sqlparser.HintUse}
	}
	return nil
}

// Emitter serializes a rewritten statement into executable SQL for one
// backend dialect. Emitters never mutate the statement; they clone before
// reframing. Implementations are stateless and safe for concurrent use.
type Emitter interface {
	// Name identifies the dialect: "sieve", "mysql" or "postgres".
	Name() string
	// Emit renders the statement. guards carries the middleware's per-CTE
	// provenance (Report.GuardedCTEs); pass nil to serialize verbatim.
	Emit(stmt *sqlparser.SelectStmt, guards []GuardedCTE) (*Emission, error)
}

// EmitOption configures an emitter.
type EmitOption func(*emitConfig)

type emitConfig struct {
	comments bool
}

// WithProvenanceComments makes the external emitters embed a
// "/* sieve: ... */" comment in each guarded CTE, carrying the relation,
// strategy and arm counts — provenance a DBA sees in the backend's own
// query log.
func WithProvenanceComments() EmitOption {
	return func(c *emitConfig) { c.comments = true }
}

// SieveEmitter returns the internal dialect emitter: canonical text that
// re-parses through sqlparser.Parse to an AST identical to the input. The
// embedded engine consumes exactly this form.
func SieveEmitter() Emitter { return sieveEmitter{} }

// MySQLEmitter returns the MySQL emitter: backtick-quoted identifiers, "?"
// placeholders, LIMIT offset, count — and, when the planner chose
// IndexGuards, a UNION arm per guard with USE INDEX, since MySQL cannot
// OR-combine index scans (§5.5). Set operations print as EXCEPT (MySQL ≥
// 8.0.31).
func MySQLEmitter(opts ...EmitOption) Emitter {
	return externalEmitter{name: "mysql", cfg: applyEmitOptions(opts)}
}

// PostgresEmitter returns the PostgreSQL emitter: double-quoted
// identifiers, "$1" placeholders, LIMIT n OFFSET m, index hints dropped
// (they are a syntax error in PostgreSQL, which ignores hints by design),
// and guard disjunctions kept as OR-of-ANDs for the bitmap-OR scan.
func PostgresEmitter(opts ...EmitOption) Emitter {
	return externalEmitter{name: "postgres", cfg: applyEmitOptions(opts)}
}

// EmitterFor resolves a dialect name ("sieve", "mysql", "postgres" or
// "postgresql") to its emitter. The sieve dialect takes no options — a
// provenance comment would break its parse-identical round-trip contract —
// so passing any is an error rather than a silent drop.
func EmitterFor(dialect string, opts ...EmitOption) (Emitter, error) {
	switch strings.ToLower(dialect) {
	case "sieve":
		if len(opts) > 0 {
			return nil, fmt.Errorf("engine: the sieve dialect takes no emit options")
		}
		return SieveEmitter(), nil
	case "mysql":
		return MySQLEmitter(opts...), nil
	case "postgres", "postgresql":
		return PostgresEmitter(opts...), nil
	}
	return nil, fmt.Errorf("engine: unknown emit dialect %q (want sieve, mysql or postgres)", dialect)
}

func applyEmitOptions(opts []EmitOption) emitConfig {
	var cfg emitConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// sieveEmitter round-trips through our own parser; guards provenance is
// irrelevant because the stored AST already is the engine's input form.
type sieveEmitter struct{}

func (sieveEmitter) Name() string { return "sieve" }

func (sieveEmitter) Emit(stmt *sqlparser.SelectStmt, _ []GuardedCTE) (*Emission, error) {
	sql, err := sqlparser.NewPrinter(nil).Stmt(stmt)
	if err != nil {
		return nil, err
	}
	return &Emission{Dialect: "sieve", SQL: sql}, nil
}

// externalEmitter renders for MySQL or PostgreSQL: it reframes each guarded
// CTE body from provenance (so emission does not depend on which engine
// dialect produced the AST), then serializes through a dialect Style.
type externalEmitter struct {
	name string
	cfg  emitConfig
}

func (e externalEmitter) Name() string { return e.name }

func (e externalEmitter) Emit(stmt *sqlparser.SelectStmt, guards []GuardedCTE) (*Emission, error) {
	byName := make(map[string]*GuardedCTE, len(guards))
	for i := range guards {
		byName[guards[i].Name] = &guards[i]
	}
	out := sqlparser.CloneStmt(stmt)
	for i := range out.With {
		g, ok := byName[out.With[i].Name]
		if !ok {
			continue // user-written CTE: serialize as-is
		}
		out.With[i].Select = e.frameCTE(g)
	}

	var style sqlparser.Style
	em := &Emission{Dialect: e.name}
	comments := map[string]string{}
	if e.cfg.comments {
		for name, g := range byName {
			comments[name] = provenanceComment(g)
		}
	}
	base := externalStyle{args: &em.Args, cteComments: comments}
	switch e.name {
	case "mysql":
		style = &mysqlStyle{externalStyle: base}
	default:
		style = &postgresStyle{externalStyle: base}
	}
	sql, err := sqlparser.NewPrinter(style).Stmt(out)
	if err != nil {
		return nil, err
	}
	em.SQL = sql
	return em, nil
}

// frameCTE frames a guarded CTE body for the target dialect: MySQL's
// UNION per guard under IndexGuards, Frame otherwise. PostgreSQL has no hint
// syntax, so its Style prints Frame's hints as nothing.
func (e externalEmitter) frameCTE(g *GuardedCTE) *sqlparser.SelectStmt {
	if e.name == "mysql" && g.Strategy == "IndexGuards" && len(g.Arms) > 0 {
		return e.unionPerGuard(g)
	}
	return g.Frame(true)
}

// unionPerGuard renders the IndexGuards strategy for MySQL: one SELECT per
// arm, each driven by USE INDEX on the arm's own column and UNIONed
// together — the workaround for MySQL's inability to OR-combine index
// scans. The pushed query conjuncts repeat in every arm, preserving the OR
// distribution (§5.6). Caveat, inherited from the paper's §5.5 framing:
// UNION is distinct, so value-identical duplicate tuples collapse to one
// row, where the OR-of-ANDs form would keep both. Relations with a unique
// column (like the demo schemas' id) are unaffected; without one, the
// PostgreSQL emission or a LinearScan/IndexQuery strategy preserves
// duplicates.
func (e externalEmitter) unionPerGuard(g *GuardedCTE) *sqlparser.SelectStmt {
	armCore := func(a GuardArm) *sqlparser.SelectCore {
		ref := sqlparser.TableRef{Name: g.Relation}
		if a.Col != "" {
			ref.Hint = &sqlparser.IndexHint{Kind: sqlparser.HintUse, Indexes: []string{a.Col}}
		}
		return &sqlparser.SelectCore{
			Star:  true,
			From:  []sqlparser.TableRef{ref},
			Where: sqlparser.Guarded(g.QueryConjs, a.Expr),
			Limit: -1,
		}
	}
	stmt := &sqlparser.SelectStmt{Body: armCore(g.Arms[0])}
	for _, a := range g.Arms[1:] {
		stmt.Ops = append(stmt.Ops, sqlparser.SetOp{Kind: sqlparser.SetUnion, Core: armCore(a)})
	}
	return stmt
}

func provenanceComment(g *GuardedCTE) string {
	deltas := 0
	for _, a := range g.Arms {
		if a.Delta {
			deltas++
		}
	}
	c := fmt.Sprintf("sieve: %s strategy=%s guards=%d delta=%d", g.Relation, g.Strategy, len(g.Arms), deltas)
	if g.DefaultDeny {
		c += " default-deny"
	}
	return c
}

// paramLiteral writes a placeholder for data literals and records the value
// on the args list; booleans and NULL stay inline (they are structural —
// default-deny FALSE, Δ-call "= TRUE" framing — not data).
func paramLiteral(b *strings.Builder, v storage.Value, args *[]storage.Value, placeholder func(n int) string) {
	switch v.K {
	case storage.KindBool, storage.KindNull:
		b.WriteString(v.String()) // TRUE / FALSE / NULL in both dialects
	default:
		*args = append(*args, v)
		b.WriteString(placeholder(len(*args)))
	}
}

func quoteIdent(b *strings.Builder, name string, quote byte) {
	b.WriteByte(quote)
	for i := 0; i < len(name); i++ {
		if name[i] == quote {
			b.WriteByte(quote)
		}
		b.WriteByte(name[i])
	}
	b.WriteByte(quote)
}

// externalStyle holds the hooks MySQL and PostgreSQL share: EXCEPT for
// MINUS (neither speaks Oracle's keyword) and provenance CTE comments.
type externalStyle struct {
	args        *[]storage.Value
	cteComments map[string]string
}

func (s *externalStyle) SetOp(b *strings.Builder, kind sqlparser.SetOpKind, all bool) {
	switch {
	case kind == sqlparser.SetUnion && all:
		b.WriteString(" UNION ALL ")
	case kind == sqlparser.SetUnion:
		b.WriteString(" UNION ")
	default:
		b.WriteString(" EXCEPT ") // MySQL ≥ 8.0.31; MINUS is not MySQL/PG syntax
	}
}

func (s *externalStyle) CTEComment(name string) string { return s.cteComments[name] }

// mysqlStyle spells the MySQL dialect: backtick identifiers, "?"
// placeholders, LIMIT offset, count, hints kept.
type mysqlStyle struct{ externalStyle }

func (s *mysqlStyle) Ident(b *strings.Builder, name string) { quoteIdent(b, name, '`') }

func (s *mysqlStyle) Literal(b *strings.Builder, v storage.Value) {
	paramLiteral(b, v, s.args, func(int) string { return "?" })
}

func (s *mysqlStyle) Hint(b *strings.Builder, h *sqlparser.IndexHint) {
	sqlparser.FormatHint(b, h, s.Ident)
}

func (s *mysqlStyle) LimitOffset(b *strings.Builder, limit, offset int64) {
	b.WriteString(" LIMIT ")
	if offset > 0 {
		b.WriteString(strconv.FormatInt(offset, 10))
		b.WriteString(", ")
	}
	b.WriteString(strconv.FormatInt(limit, 10))
}

// postgresStyle spells the PostgreSQL dialect: double-quoted identifiers,
// "$n" placeholders, LIMIT n OFFSET m (the canonical form DefaultStyle
// already prints), hints dropped (PostgreSQL has no hint syntax — the
// optimizer's BitmapOr covers the guards instead).
type postgresStyle struct{ externalStyle }

func (s *postgresStyle) Ident(b *strings.Builder, name string) { quoteIdent(b, name, '"') }

func (s *postgresStyle) Literal(b *strings.Builder, v storage.Value) {
	paramLiteral(b, v, s.args, func(n int) string { return "$" + strconv.Itoa(n) })
}

func (s *postgresStyle) Hint(b *strings.Builder, h *sqlparser.IndexHint) {}

func (s *postgresStyle) LimitOffset(b *strings.Builder, limit, offset int64) {
	sqlparser.DefaultStyle{}.LimitOffset(b, limit, offset)
}
