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

// TestOpenRunsOnScanClock: opening a statement materialises its set
// operations, its eager WITH bodies and its grouped or ordered cores. That
// is the engine's work, so the "scan" span must hold it, not only the
// Rows.Next calls after it: for each such statement the span covers at
// least 90% of the wall time of StreamStmt (the best of three opens, so one
// descheduled moment cannot fail it). And Collect, the one materialising
// drain, returns a stream that fails mid-way whole: its error and no
// partial Result.
func TestOpenRunsOnScanClock(t *testing.T) {
	db := buildStreamDB(t, 10000)
	db.ScanWorkers = 1
	queries := []struct{ name, sql string }{
		{"GROUP BY", "SELECT grp, count(*), sum(id) FROM s GROUP BY grp"},
		{"ORDER BY", "SELECT id FROM s ORDER BY id DESC"},
		{"UNION", "SELECT id FROM s WHERE grp < 4 UNION SELECT id FROM s WHERE grp > 2"},
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
			w := time.Since(t0)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			s := root.Child("scan").Duration()
			rows.Close()
			if cov := float64(s) / float64(w); trial == 0 || cov > best {
				best, wall, scan = cov, w, s
			}
		}
		if best < 0.9 {
			t.Errorf("%s: the scan span holds %v of a %v open (%.1f%%), want at least 90%%",
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
