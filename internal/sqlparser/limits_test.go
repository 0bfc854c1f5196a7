package sqlparser_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/workload"
)

// TestParserBoundsHostileInput: input past either limit is an ordinary
// parse error. An over-long statement is refused unread; over-deep nesting
// is refused where the limit is crossed — the error's offset is within the
// first MaxNestingDepth levels — not after recursing through all of it
// (unbounded, 10⁵ parentheses cost about a second, superlinearly).
func TestParserBoundsHostileInput(t *testing.T) {
	for _, h := range hostileInputs(100000) {
		t0 := time.Now()
		_, err := sqlparser.Parse(h.sql)
		d := time.Since(t0)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", h.name)
		case h.open == "":
			if !strings.Contains(err.Error(), "limit") {
				t.Errorf("%s: rejected for another reason: %v", h.name, err)
			}
		default:
			msg := err.Error()
			var offset int
			if i := strings.LastIndex(msg, "at offset "); !strings.Contains(msg, "nested deeper") || i < 0 {
				t.Errorf("%s: rejected for another reason: %v", h.name, err)
			} else if fmt.Sscanf(msg[i:], "at offset %d", &offset); offset > len(where)+(sqlparser.MaxNestingDepth+1)*len(h.open) {
				t.Errorf("%s: gave up only at offset %d", h.name, offset)
			}
		}
		if d > time.Second { // milliseconds, but for the race detector's lexing
			t.Errorf("%s: rejected only after %v", h.name, d)
		}
		if _, err := sqlparser.ParseExpr(h.sql); err == nil {
			t.Errorf("%s: ParseExpr accepted", h.name)
		}
	}
	// Just inside the limits still parses.
	depth := sqlparser.MaxNestingDepth - 2 // the statement and the WHERE's own parseNot
	if _, err := sqlparser.Parse(where + strings.Repeat("(", depth) + "x" + strings.Repeat(")", depth)); err != nil {
		t.Errorf("%d parentheses: %v", depth, err)
	}
}

const where = "SELECT * FROM t WHERE "

// hostileInputs are statements past the parser's limits: four ways of
// nesting n levels deep (derived tables n/10), each with the text one level
// repeats as open, and one statement of 1 MiB (open empty).
func hostileInputs(n int) []struct{ name, sql, open string } {
	return []struct{ name, sql, open string }{
		{"parens", where + strings.Repeat("(", n) + "1" + strings.Repeat(")", n), "("},
		{"nots", where + strings.Repeat("NOT ", n) + "x", "NOT "},
		{"minuses", where + "x = " + strings.Repeat("- ", n) + "1", "- "},
		{"derived tables", strings.Repeat("SELECT * FROM (", n/10) + "SELECT * FROM t" + strings.Repeat(") AS s", n/10), "SELECT * FROM ("},
		{"1 MiB", where + "x IN (" + strings.Repeat("1, ", 1<<20/3) + "1)", ""},
	}
}

// corpusSQL returns every query of the campus, mall and hospital corpora,
// and every emitted guarded rewrite under engine/testdata/emit in the sieve
// dialect (mysql and postgres emissions use quoting this parser never read;
// the sieve dialect's are its round-trip form), each named.
func corpusSQL(tb testing.TB) map[string]string {
	tb.Helper()
	campus, err := workload.BuildCampus(workload.TestCampusConfig(), engine.MySQL())
	if err != nil {
		tb.Fatal(err)
	}
	mall, err := workload.BuildMall(workload.TestMallConfig(), engine.MySQL())
	if err != nil {
		tb.Fatal(err)
	}
	hospital, err := workload.BuildHospital(workload.TestHospitalConfig(), engine.MySQL())
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string]string{}
	for _, corpus := range [][]workload.NamedQuery{campus.CorpusQueries(), mall.CorpusQueries(), hospital.CorpusQueries()} {
		for _, q := range corpus {
			out["corpus query "+q.Name] = q.SQL
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "engine", "testdata", "emit", "*.sieve.sql"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no emitted rewrites found: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(f)] = string(raw)
	}
	return out
}

// TestParserLimitsAdmitTheCorpora: every query of the workload corpora and
// every emitted guarded rewrite that parsed without limits parses with them.
func TestParserLimitsAdmitTheCorpora(t *testing.T) {
	for name, sql := range corpusSQL(t) {
		if _, err := sqlparser.Parse(sql); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
