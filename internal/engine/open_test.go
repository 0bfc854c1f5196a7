package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestOpenRunsOnScanClock: opening a statement materialises its eager WITH
// bodies, and the first Rows.Next materialises a grouped or ordered core's
// input and a MINUS's right arm. Both are the engine's work, so the "scan"
// span must hold it: for each such statement the span covers at least 90%
// of the wall time of StreamStmt and the first Next after it (the best of
// three runs, so one descheduled moment cannot fail it). And Collect, the one
// materialising drain, returns a stream that fails mid-way whole: its error
// and no partial Result.
func TestOpenRunsOnScanClock(t *testing.T) {
	db := buildStreamDB(t, 10000)
	db.ScanWorkers = 1
	queries := []struct{ name, sql string }{
		{"GROUP BY", "SELECT grp, count(*), sum(id) FROM s GROUP BY grp"},
		{"ORDER BY", "SELECT id FROM s ORDER BY id DESC"},
		{"MINUS", "SELECT id FROM s WHERE grp < 4 MINUS SELECT id FROM s WHERE grp > 2"},
		{"eager CTE read twice", "WITH w AS (SELECT id, grp FROM s WHERE grp < 6) SELECT id FROM w WHERE id IN (SELECT id FROM w WHERE grp = 1)"},
	}
	for _, q := range queries {
		stmt, err := sqlparser.Parse(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		var best float64
		var wall, scan time.Duration
		for trial := 0; trial < 3 && best < 0.9; trial++ {
			root := obs.NewTrace("query")
			t0 := time.Now()
			rows, err := db.StreamStmt(obs.WithSpan(context.Background(), root), stmt)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			if !rows.Next() {
				t.Fatalf("%s: no first row: %v", q.name, rows.Err())
			}
			w := time.Since(t0)
			s := root.Child("scan").Duration()
			rows.Close()
			if cov := float64(s) / float64(w); trial == 0 || cov > best {
				best, wall, scan = cov, w, s
			}
		}
		if best < 0.9 {
			t.Errorf("%s: the scan span holds %v of a %v open and first Next (%.1f%%), want at least 90%%",
				q.name, scan, wall, 100*best)
		}
	}

	ctx := context.Background()
	const failAt = 300
	db.RegisterUDF("fail_at", func(_ *UDFContext, args []storage.Value) (storage.Value, error) {
		if args[0].I == failAt {
			return storage.Null, errors.New("fail_at: injected failure")
		}
		return args[0], nil
	})
	const failing = "SELECT fail_at(id) FROM s"
	rows, err := db.Stream(ctx, failing)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if rows.Err() == nil || n != failAt {
		t.Fatalf("stream read %d rows, then err %v; want %d rows, then the injected failure", n, rows.Err(), failAt)
	}
	res, err := Collect(db.Stream(ctx, failing))
	if err == nil || !strings.Contains(err.Error(), "injected failure") || res != nil {
		t.Fatalf("Collect over a stream failing after %d rows = (%v, %v), want (nil, the injected failure)", failAt, res, err)
	}
	if res, err := Collect(db.Stream(ctx, "SELECT nope FROM s")); err == nil || res != nil {
		t.Fatalf("Collect over a failed open = (%v, %v), want (nil, the open's error)", res, err)
	}
}

// TestUnboundPlaceholderFailsAtOpen: a statement with a placeholder left in
// it fails at open, at every engine door, with the bind error — not when,
// and only if, some row reaches the placeholder. A Prepared is checked once:
// every execution returns the one error its first execution found.
func TestUnboundPlaceholderFailsAtOpen(t *testing.T) {
	db := buildStreamDB(t, 100)
	ctx := context.Background()
	const want = "statement has 1 placeholder(s), got 0 argument(s)"
	queries := []string{
		"SELECT * FROM s WHERE grp = ?",
		"SELECT * FROM s WHERE id < 0 AND grp = ?",
		"SELECT count(*) FROM s WHERE id > 1000 AND grp = ?",
		"SELECT id FROM s WHERE id < 0 UNION SELECT id FROM s WHERE id < 0 AND grp = ?",
		"SELECT * FROM (SELECT id FROM s WHERE id < 0 AND grp = ?) d",
		"WITH w AS (SELECT id FROM s WHERE id < 0 AND grp = ?) SELECT * FROM w",
		"SELECT id FROM s WHERE id < 0 AND EXISTS (SELECT 1 FROM s WHERE grp = ?)",
	}
	for _, q := range queries {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p := db.Prepare(stmt)
		_, first := p.Stream(ctx)
		doors := map[string]func() error{
			"Query":        func() error { _, err := db.Query(q); return err },
			"QueryStmtCtx": func() error { _, err := db.QueryStmtCtx(ctx, stmt); return err },
			"StreamStmt":   func() error { _, err := db.StreamStmt(ctx, stmt); return err },
			"Prepared.Stream": func() error {
				_, err := p.Stream(ctx)
				if err != first {
					t.Errorf("%q: Prepared.Stream returned %v, then %v: checked per execution", q, first, err)
				}
				return err
			},
		}
		for name, door := range doors {
			if err := door(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %q: err = %v, want %q", name, q, err, want)
			}
		}
	}
}
