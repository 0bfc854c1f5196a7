package engine

import (
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
}

// Explain is the engine's query plan summary.
type Explain struct {
	Dialect string
	Tables  []TableAccess
}

// String renders the plan like a terse EXPLAIN output.
func (e *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN (%s)\n", e.Dialect)
	for _, t := range e.Tables {
		fmt.Fprintf(&b, "  %-24s %-10s index=%-12s sel=%.4f rows=%.0f",
			t.Table, t.Kind, orDash(t.Index), t.EstSel, t.EstRows)
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

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Explain plans the statement's first select core without executing it and
// reports, per base table, the access path the optimizer would use and its
// estimated selectivity. This is the §5.5 input to SIEVE's strategy choice.
// The statement is bound as an open binds it, and fails as the open would.
func (db *DB) Explain(stmt *sqlparser.SelectStmt) (*Explain, error) {
	sb, err := db.bind(stmt)
	if err != nil {
		return nil, err
	}
	out := &Explain{Dialect: db.dialect.Name()}
	for i := range sb.body.sources {
		src := &sb.body.sources[i]
		if src.t == nil {
			out.Tables = append(out.Tables, TableAccess{Table: src.name, Kind: AccessDerived, EstSel: 1})
			continue
		}
		plan := planAccess(db, src.t, &src.tableBinding, src.ref.Hint)
		pruned, total := plan.segmentStats(src.t)
		out.Tables = append(out.Tables, TableAccess{
			Table:          src.name,
			Kind:           plan.Kind,
			Index:          plan.Index,
			EstSel:         plan.EstSel,
			EstRows:        plan.EstSel * float64(src.t.NumRows()),
			Segments:       total,
			SegmentsPruned: pruned,
			Vectorised:     len(src.conjs) > 0,
		})
	}
	return out, nil
}
