package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/emit goldens from current emitter output")

// emitCase is one golden scenario: a rewritten statement (as the rewrite
// produces it for the embedded engine) plus its guard provenance, emitted
// for every dialect.
type emitCase struct {
	name   string
	stmt   *sqlparser.SelectStmt
	guards []GuardedCTE
	opts   []EmitOption
}

func expr(t *testing.T, s string) sqlparser.Expr {
	t.Helper()
	e, err := sqlparser.ParseExpr(s)
	if err != nil {
		t.Fatalf("bad test expression %q: %v", s, err)
	}
	return e
}

func emitCases(t *testing.T) []emitCase {
	t.Helper()
	arm1 := expr(t, "WiFi_Dataset.wifiAP = 1200 AND WiFi_Dataset.owner IN (5, 7)")
	arm2 := expr(t, "WiFi_Dataset.owner = 9 AND sieve_delta(3, WiFi_Dataset.id, WiFi_Dataset.owner) = TRUE")
	conj := expr(t, "WiFi_Dataset.ts_date > DATE '2000-01-11'")

	guardDisjunction := emitCase{
		name: "guard_disjunction",
		stmt: sqlparser.MustParse(
			"WITH WiFi_Dataset_sieve AS (" +
				"SELECT * FROM WiFi_Dataset FORCE INDEX (owner, wifiAP) " +
				"WHERE WiFi_Dataset.ts_date > DATE '2000-01-11' AND (" +
				"WiFi_Dataset.wifiAP = 1200 AND WiFi_Dataset.owner IN (5, 7) OR " +
				"WiFi_Dataset.owner = 9 AND sieve_delta(3, WiFi_Dataset.id, WiFi_Dataset.owner) = TRUE)) " +
				"SELECT * FROM WiFi_Dataset_sieve AS W WHERE W.ts_time BETWEEN TIME '09:00' AND TIME '10:30'"),
		guards: []GuardedCTE{{
			Name:     "WiFi_Dataset_sieve",
			Relation: "WiFi_Dataset",
			Strategy: "IndexGuards",
			Arms: []GuardArm{
				{Col: "wifiAP", Expr: arm1},
				{Col: "owner", Expr: arm2, Delta: true},
			},
			Guard:      sqlparser.Or(arm1, arm2),
			QueryConjs: []sqlparser.Expr{conj},
		}},
	}

	defaultDeny := emitCase{
		name: "default_deny",
		stmt: sqlparser.MustParse(
			"WITH WiFi_Dataset_sieve AS (SELECT * FROM WiFi_Dataset WHERE FALSE) " +
				"SELECT count(*) FROM WiFi_Dataset_sieve AS WiFi_Dataset"),
		guards: []GuardedCTE{{
			Name:        "WiFi_Dataset_sieve",
			Relation:    "WiFi_Dataset",
			Strategy:    "IndexGuards",
			DefaultDeny: true,
		}},
	}

	limitOffset := emitCase{
		name: "limit_offset",
		stmt: sqlparser.MustParse(
			"SELECT id, owner FROM WiFi_Dataset AS W WHERE W.wifiAP = 7 ORDER BY id LIMIT 10 OFFSET 20"),
	}

	placeholders := emitCase{
		name: "placeholders",
		stmt: sqlparser.MustParse(
			"SELECT * FROM Shops WHERE name = 'O''Leary''s' AND open >= TIME '08:30' " +
				"AND since > DATE '2000-02-29' AND rating > 4.5 AND active = TRUE AND note IS NOT NULL LIMIT 3"),
	}

	indexQuery := emitCase{
		name: "index_query",
		stmt: sqlparser.MustParse(
			"WITH WiFi_Dataset_sieve AS (" +
				"SELECT * FROM WiFi_Dataset FORCE INDEX (ts_date) " +
				"WHERE WiFi_Dataset.ts_date > DATE '2000-01-11' AND (" +
				"WiFi_Dataset.wifiAP = 1200 AND WiFi_Dataset.owner IN (5, 7))) " +
				"SELECT * FROM WiFi_Dataset_sieve AS WiFi_Dataset"),
		guards: []GuardedCTE{{
			Name:       "WiFi_Dataset_sieve",
			Relation:   "WiFi_Dataset",
			Strategy:   "IndexQuery",
			QueryIndex: "ts_date",
			Arms:       []GuardArm{{Col: "wifiAP", Expr: arm1}},
			Guard:      arm1,
			QueryConjs: []sqlparser.Expr{conj},
		}},
	}

	minus := emitCase{
		name: "minus",
		stmt: sqlparser.MustParse(
			"SELECT owner FROM Visits MINUS SELECT owner FROM Blocked"),
	}

	comments := guardDisjunction
	comments.name = "provenance_comments"
	comments.opts = []EmitOption{WithProvenanceComments()}

	return []emitCase{
		guardDisjunction, defaultDeny, limitOffset, placeholders, indexQuery, minus, comments,
	}
}

func goldenText(em *Emission) string {
	var b strings.Builder
	b.WriteString(em.SQL)
	b.WriteString("\n")
	for i, a := range em.Args {
		fmt.Fprintf(&b, "-- arg %d: %s\n", i+1, a.String())
	}
	return b.String()
}

var pgPlaceholderRE = regexp.MustCompile(`\$\d+`)

func TestEmitGoldens(t *testing.T) {
	dialects := []string{"sieve", "mysql", "postgres"}
	for _, tc := range emitCases(t) {
		for _, d := range dialects {
			t.Run(tc.name+"/"+d, func(t *testing.T) {
				opts := tc.opts
				if d == "sieve" {
					opts = nil // the round-trip dialect takes no options
				}
				e, err := EmitterFor(d, opts...)
				if err != nil {
					t.Fatal(err)
				}
				em, err := e.Emit(tc.stmt, tc.guards)
				if err != nil {
					t.Fatalf("emit: %v", err)
				}

				// Structural invariants before golden comparison.
				switch d {
				case "sieve":
					if len(em.Args) != 0 {
						t.Fatalf("sieve emission must inline literals, got %d args", len(em.Args))
					}
					back, err := sqlparser.Parse(em.SQL)
					if err != nil {
						t.Fatalf("sieve emission does not re-parse: %v\n%s", err, em.SQL)
					}
					if !reflect.DeepEqual(tc.stmt, back) {
						t.Fatalf("sieve emission round-trip mismatch:\n%s\nreprints as\n%s",
							em.SQL, sqlparser.Print(back))
					}
				case "mysql":
					if got := strings.Count(em.SQL, "?"); got != len(em.Args) {
						t.Fatalf("mysql placeholders (%d) != args (%d)\n%s", got, len(em.Args), em.SQL)
					}
				case "postgres":
					if got := len(pgPlaceholderRE.FindAllString(em.SQL, -1)); got != len(em.Args) {
						t.Fatalf("postgres placeholders (%d) != args (%d)\n%s", got, len(em.Args), em.SQL)
					}
					if strings.Contains(em.SQL, "INDEX") {
						t.Fatalf("postgres emission must not carry index hints:\n%s", em.SQL)
					}
					if strings.Contains(em.SQL, "`") {
						t.Fatalf("postgres emission must not use backticks:\n%s", em.SQL)
					}
				}

				got := goldenText(em)
				path := filepath.Join("testdata", "emit", tc.name+"."+d+".sql")
				if *updateGoldens {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
				}
				if got != string(want) {
					t.Errorf("golden mismatch for %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			})
		}
	}
}

// TestEmitterDoesNotMutateInput guards the plan-cache contract: emission
// must leave the cached rewritten AST untouched.
func TestEmitterDoesNotMutateInput(t *testing.T) {
	tc := emitCases(t)[0]
	before := sqlparser.Print(tc.stmt)
	for _, d := range []string{"sieve", "mysql", "postgres"} {
		e, _ := EmitterFor(d)
		if _, err := e.Emit(tc.stmt, tc.guards); err != nil {
			t.Fatal(err)
		}
	}
	if after := sqlparser.Print(tc.stmt); after != before {
		t.Fatalf("emitter mutated its input:\nbefore %s\nafter  %s", before, after)
	}
}

// TestFrameIsTheRewrittenBody: each golden's guarded WITH body is what the
// rewrite frames for a hint-honouring engine, Frame(true), and Frame(false)
// is that body without its hint.
func TestFrameIsTheRewrittenBody(t *testing.T) {
	for _, tc := range emitCases(t) {
		for _, g := range tc.guards {
			i := slices.IndexFunc(tc.stmt.With, func(c sqlparser.CTE) bool { return c.Name == g.Name })
			if i < 0 {
				t.Fatalf("%s: no WITH entry %s", tc.name, g.Name)
			}
			body := tc.stmt.With[i].Select
			if got, want := sqlparser.Print(g.Frame(true)), sqlparser.Print(body); got != want {
				t.Errorf("%s: Frame(true)\n%s\nwant\n%s", tc.name, got, want)
			}
			bare := sqlparser.CloneStmt(body)
			bare.Body.From[0].Hint = nil
			if got, want := sqlparser.Print(g.Frame(false)), sqlparser.Print(bare); got != want {
				t.Errorf("%s: Frame(false)\n%s\nwant\n%s", tc.name, got, want)
			}
		}
	}
}

// TestEmitUnknownDialect covers the resolver's error path and aliases.
func TestEmitUnknownDialect(t *testing.T) {
	if _, err := EmitterFor("oracle"); err == nil {
		t.Fatal("want error for unknown dialect")
	}
	e, err := EmitterFor("PostgreSQL")
	if err != nil || e.Name() != "postgres" {
		t.Fatalf("postgresql alias: %v, %v", e, err)
	}
	if _, err := EmitterFor("sieve", WithProvenanceComments()); err == nil {
		t.Fatal("want error: the sieve dialect takes no emit options")
	}
}

// TestEmitOffsetForms pins the dialect-specific LIMIT/OFFSET spellings.
func TestEmitOffsetForms(t *testing.T) {
	stmt := sqlparser.MustParse("SELECT * FROM t LIMIT 5 OFFSET 12")
	my, err := MySQLEmitter().Emit(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(my.SQL, "LIMIT 12, 5") {
		t.Fatalf("mysql LIMIT form: %s", my.SQL)
	}
	pg, err := PostgresEmitter().Emit(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(pg.SQL, "LIMIT 5 OFFSET 12") {
		t.Fatalf("postgres LIMIT form: %s", pg.SQL)
	}
}
