package engine

import (
	"cmp"
	"fmt"
	"strings"

	"github.com/sieve-db/sieve/internal/sqlparser"
)

// TableAccess describes how the planner would read one FROM entry: the
// access path, driving index, and estimated selectivity of the predicate it
// pushes into the scan. SIEVE consumes this to price its LinearScan /
// IndexQuery / IndexGuards strategies (§5.5).
type TableAccess struct {
	Table  string
	Kind   AccessKind
	Index  string
	EstSel float64
	// EstRows is EstSel × table cardinality (0 for derived tables).
	EstRows float64
	// Segments and SegmentsPruned report zone-map pruning for sequential
	// scans: of Segments total, SegmentsPruned are refuted by the scan's
	// predicates against current zone maps and will not be read.
	Segments       int
	SegmentsPruned int
	// Vectorised reports whether the access runs a compiled batch filter
	// (column-at-a-time): every base-table access with a predicate does,
	// sequential scan and index fetch list alike.
	Vectorised bool
	// A base-table entry's FROM entry, the core it sits in, and the WHERE
	// conjuncts on its scan that read its row alone (DB.Explain); nil on a
	// derived entry.
	Ref   *sqlparser.TableRef
	Core  *sqlparser.SelectCore
	Conjs []sqlparser.Expr
}

// Explain is the engine's query plan summary.
type Explain struct {
	Dialect string
	// Tables lists every FROM entry at any depth, core by core as the bind
	// pass finishes them (a core after the cores nested in it: WITH bodies,
	// derived tables, expression subqueries), each core's in FROM order.
	Tables []TableAccess
	// With lists every WITH name the statement defines, at any depth.
	With []string
}

// String renders the plan like a terse EXPLAIN output.
func (e *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN (%s)\n", e.Dialect)
	for _, t := range e.Tables {
		fmt.Fprintf(&b, "  %-24s %-10s index=%-12s sel=%.4f rows=%.0f",
			t.Table, t.Kind, cmp.Or(t.Index, "-"), t.EstSel, t.EstRows)
		if t.Kind == AccessSeq && t.Segments > 0 {
			fmt.Fprintf(&b, " segs=%d/%d pruned", t.SegmentsPruned, t.Segments)
		}
		if t.Vectorised {
			b.WriteString(" vec")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Explain plans the statement without executing it and reports, for every
// FROM entry, the access path the optimizer would use for a base table
// under its own hint and conjuncts, with its estimated selectivity: the
// §5.5 input to SIEVE's strategy choice, and where the rewrite finds every
// reference. It binds as an open binds, and fails as the open would. A
// conjunct on a base table's scan is in Conjs when the pass placed it there
// holding no subquery and reading no enclosing row (Conjunct.local); a
// registered guard disjunction, whose names the pass does not walk, is not.
func (db *DB) Explain(stmt *sqlparser.SelectStmt) (*Explain, error) {
	bd := newBinder(db)
	bd.listing = true
	bd.stmt(stmt, nil, nil)
	if err := bd.result(); err != nil {
		return nil, err
	}
	out := &Explain{Dialect: db.dialect.Name(), With: bd.withs}
	for _, bc := range bd.cores {
		for i := range bc.sources {
			src := &bc.sources[i]
			if src.t == nil {
				out.Tables = append(out.Tables, TableAccess{Table: src.name, Kind: AccessDerived, EstSel: 1})
				continue
			}
			plan := planAccess(db, src.t, &src.tableBinding, src.ref.Hint)
			ta := TableAccess{
				Table:      src.name,
				Kind:       plan.Kind,
				Index:      plan.Index,
				EstSel:     plan.EstSel,
				EstRows:    plan.EstSel * float64(src.t.NumRows()),
				Vectorised: len(src.conjs) > 0,
				Ref:        src.ref,
				Core:       bc.core,
			}
			ta.SegmentsPruned, ta.Segments = plan.segmentStats(src.t)
			for _, c := range src.conjs {
				if c.local {
					ta.Conjs = append(ta.Conjs, c.expr)
				}
			}
			out.Tables = append(out.Tables, ta)
		}
	}
	return out, nil
}
