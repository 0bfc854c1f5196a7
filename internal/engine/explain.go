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

// explain plans the body core's FROM entries without executing the query.
func (ex *executor) explain(s *sqlparser.SelectStmt) (*Explain, error) {
	core := s.Body
	out := &Explain{Dialect: ex.db.dialect.Name()}

	// CTE names are visible to the body; model them as derived tables.
	cteNames := make(map[string]bool, len(s.With))
	for _, cte := range s.With {
		cteNames[cte.Name] = true
	}

	// Build sourceInfo without executing subqueries: column sets for
	// refSet classification come from the catalog only for base tables.
	sources := make([]*sourceInfo, 0, len(core.From))
	for _, ref := range core.From {
		src := &sourceInfo{ref: ref, name: ref.RefName(), cols: make(map[string]bool)}
		if ref.Subquery == nil && !cteNames[ref.Name] {
			t, ok := ex.db.Table(ref.Name)
			if !ok {
				return nil, fmt.Errorf("engine: unknown table %q", ref.Name)
			}
			src.tbl = t
			for _, c := range t.Schema.Columns {
				src.cols[c.Name] = true
			}
		}
		sources = append(sources, src)
	}

	// Conjuncts land on the scans execution pushes them into.
	_, perSource := classifyConjuncts(core, sources)
	for i, src := range sources {
		if src.tbl == nil {
			out.Tables = append(out.Tables, TableAccess{Table: src.name, Kind: AccessDerived, EstSel: 1})
			continue
		}
		plan := planAccess(ex.db, src.tbl, bindTable(ex.db, src.tbl, src.name, perSource[i]), src.ref.Hint)
		pruned, total := plan.segmentStats(src.tbl)
		out.Tables = append(out.Tables, TableAccess{
			Table:          src.name,
			Kind:           plan.Kind,
			Index:          plan.Index,
			EstSel:         plan.EstSel,
			EstRows:        plan.EstSel * float64(src.tbl.NumRows()),
			Segments:       total,
			SegmentsPruned: pruned,
			Vectorised:     len(perSource[i]) > 0,
		})
	}
	return out, nil
}
