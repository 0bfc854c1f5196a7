package sievesql_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"sync"
	"testing"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/sievesql"
)

// TestDriverPoolConcurrency runs parallel queriers through pooled
// connections — two sql.DB handles (different sessions) with
// SetMaxOpenConns(8), eight workers each, prepared and unprepared paths
// mixed, with a concurrent policy writer bumping the epoch. Run under
// -race -cpu=1,4 in CI.
func TestDriverPoolConcurrency(t *testing.T) {
	m, _ := buildMiddleware(t, 40)
	// bob holds owner 8's rows from the start; carol gets policies
	// appended live by the writer below.
	if err := m.AddPolicy(&sieve.Policy{
		Owner: 8, Querier: "bob", Purpose: "audit", Relation: "events", Action: sieve.Allow,
	}); err != nil {
		t.Fatal(err)
	}

	open := func(querier string) *sql.DB {
		db := sql.OpenDB(sievesql.NewConnector(m, sieve.Metadata{Querier: querier, Purpose: "audit"}))
		db.SetMaxOpenConns(8)
		t.Cleanup(func() { db.Close() })
		return db
	}
	alice, bob := open("alice"), open("bob")

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*2+1)

	count := func(db *sql.DB, prepared *sql.Stmt) (int, error) {
		var rows *sql.Rows
		var err error
		if prepared != nil {
			rows, err = prepared.Query()
		} else {
			rows, err = db.Query("SELECT id, owner FROM events")
		}
		if err != nil {
			return 0, err
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		return n, rows.Err()
	}

	aliceSt, err := alice.Prepare("SELECT id, owner FROM events")
	if err != nil {
		t.Fatal(err)
	}
	defer aliceSt.Close()

	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st := aliceSt
				if i%2 == 0 {
					st = nil
				}
				n, err := count(alice, st)
				if err != nil {
					errs <- fmt.Errorf("alice worker %d: %w", w, err)
					return
				}
				if n != 20 {
					errs <- fmt.Errorf("alice worker %d saw %d rows, want 20", w, n)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n, err := count(bob, nil)
				if err != nil {
					errs <- fmt.Errorf("bob worker %d: %w", w, err)
					return
				}
				if n != 20 {
					errs <- fmt.Errorf("bob worker %d saw %d rows, want 20", w, n)
					return
				}
			}
		}(w)
	}
	// Writer: policy inserts for a third querier bump the epoch under the
	// readers, forcing live plan re-rewrites without changing what alice
	// and bob may see.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := m.AddPolicy(&sieve.Policy{
				Owner: 7, Querier: "carol", Purpose: "audit", Relation: "events", Action: sieve.Allow,
				Conditions: []sieve.ObjectCondition{
					sieve.Compare("id", sieve.Le, sieve.Int(int64(i))),
				},
			}); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDriverCancellationMidScan cancels the query context mid-iteration:
// the scan must stop within the executor's check interval and surface
// context.Canceled through sql.Rows.Err.
func TestDriverCancellationMidScan(t *testing.T) {
	const n = 20000
	m, _ := buildMiddleware(t, n, sieve.WithForcedStrategy(sieve.LinearScan))
	db := sql.OpenDB(sievesql.NewConnector(m, sieve.Metadata{Querier: "alice", Purpose: "audit"}))
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, "SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	extra := 0
	for rows.Next() {
		extra++
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if extra > 512 {
		t.Fatalf("scan produced %d rows after cancellation", extra)
	}
}

// TestDriverEarlyCloseCounters closes sql.Rows after a handful of rows:
// the release must propagate through the driver into the engine so the
// guarded scan stops within one batch of the last row delivered (the
// engine's bound, internal/engine TestEarlyStopReadBound: ≤ 2p+64 tuples
// for a stop at heap slot p).
func TestDriverEarlyCloseCounters(t *testing.T) {
	const n = 20000
	m, db0 := buildMiddleware(t, n, sieve.WithForcedStrategy(sieve.LinearScan))
	db := sql.OpenDB(sievesql.NewConnector(m, sieve.Metadata{Querier: "alice", Purpose: "audit"}))
	defer db.Close()

	// Warm the guard cache so the measured query is scan-only.
	if _, err := db.Exec("SELECT id FROM events LIMIT 1"); err != nil {
		t.Fatal(err)
	}
	db0.ResetCounters()

	rows, err := db.Query("SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	var last int64 // id is the heap slot
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("row %d missing: %v", i, rows.Err())
		}
		if err := rows.Scan(&last); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db0.CountersSnapshot().TuplesRead; got > 2*last+64 {
		t.Fatalf("early Close at slot %d read %d tuples; scan ran more than a batch ahead", last, got)
	}
}
