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
	const n = 100000
	const where = "SELECT * FROM t WHERE "
	hostile := []struct{ name, sql, open string }{
		{"parens", where + strings.Repeat("(", n) + "1" + strings.Repeat(")", n), "("},
		{"nots", where + strings.Repeat("NOT ", n) + "x", "NOT "},
		{"minuses", where + "x = " + strings.Repeat("- ", n) + "1", "- "},
		{"derived tables", strings.Repeat("SELECT * FROM (", 10000) + "SELECT * FROM t" + strings.Repeat(") AS s", 10000), "SELECT * FROM ("},
		{"1 MiB", where + "x IN (" + strings.Repeat("1, ", 1<<20/3) + "1)", ""},
	}
	for _, h := range hostile {
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

// TestParserLimitsAdmitTheCorpora: every query of the workload corpora and
// every emitted guarded rewrite under engine/testdata/emit that parsed
// without limits parses with them (mysql and postgres emissions use quoting
// this parser never read; the sieve dialect's are its round-trip form).
func TestParserLimitsAdmitTheCorpora(t *testing.T) {
	campus, err := workload.BuildCampus(workload.TestCampusConfig(), engine.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	mall, err := workload.BuildMall(workload.TestMallConfig(), engine.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	hospital, err := workload.BuildHospital(workload.TestHospitalConfig(), engine.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	var corpus []workload.NamedQuery
	corpus = append(corpus, campus.CorpusQueries()...)
	corpus = append(corpus, mall.CorpusQueries()...)
	corpus = append(corpus, hospital.CorpusQueries()...)
	for _, q := range corpus {
		if _, err := sqlparser.Parse(q.SQL); err != nil {
			t.Errorf("corpus query %s: %v", q.Name, err)
		}
	}

	files, err := filepath.Glob(filepath.Join("..", "engine", "testdata", "emit", "*.sieve.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no emitted rewrites found: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sqlparser.Parse(string(raw)); err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
		}
	}
}
