package sqlparser_test

import (
	"slices"
	"sort"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
)

// baseTables lists, sorted, the name of every FROM entry that is not a
// derived table, wherever the statement walker reaches one.
func baseTables(s *sqlparser.SelectStmt) []string {
	var out []string
	sqlparser.WalkCores(s, func(c *sqlparser.SelectCore, _ bool) {
		for _, ref := range c.From {
			if ref.Subquery == nil {
				out = append(out, ref.Name)
			}
		}
	})
	sort.Strings(out)
	return out
}

// FuzzParse: parse → print → parse reaches a fixed point. On every input
// that parses, the printed form parses and prints to itself, and the two
// parses agree on their placeholder count, on the base tables the walker
// reports, and on the print of their clones. Seeded with the campus, mall
// and hospital corpora, the emitted guarded rewrites and the hostile inputs
// of TestParserBoundsHostileInput.
func FuzzParse(f *testing.F) {
	for _, sql := range corpusSQL(f) {
		f.Add(sql)
	}
	for _, h := range hostileInputs(sqlparser.MaxNestingDepth + 1) {
		f.Add(h.sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		s1, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		p1 := sqlparser.Print(s1)
		s2, err := sqlparser.Parse(p1)
		if err != nil {
			t.Fatalf("the printed form does not parse: %v\ninput:   %q\nprinted: %q", err, sql, p1)
		}
		if p2 := sqlparser.Print(s2); p2 != p1 {
			t.Fatalf("print is not a fixed point:\ninput:  %q\nfirst:  %q\nsecond: %q", sql, p1, p2)
		}
		if n1, n2 := sqlparser.NumPlaceholders(s1), sqlparser.NumPlaceholders(s2); n1 != n2 {
			t.Fatalf("%d placeholders, %d after the round trip: %q", n1, n2, sql)
		}
		if b1, b2 := baseTables(s1), baseTables(s2); !slices.Equal(b1, b2) {
			t.Fatalf("base tables %v, %v after the round trip: %q", b1, b2, sql)
		}
		if c1, c2 := sqlparser.Print(sqlparser.CloneStmt(s1)), sqlparser.Print(sqlparser.CloneStmt(s2)); c1 != p1 || c2 != p1 {
			t.Fatalf("clones print %q and %q, the statement %q", c1, c2, p1)
		}
	})
}
