package sieve_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	sieve "github.com/sieve-db/sieve"
)

// buildScanDB creates one protected relation with n rows, all owned by
// owner 7 and granted to "alice"/"audit", with the strategy pinned to
// LinearScan so queries pay a full-table scan unless something terminates
// them early.
func buildScanDB(t *testing.T, n int, opts ...sieve.Option) (*sieve.Middleware, *sieve.DB) {
	t.Helper()
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
		sieve.Column{Name: "v", Type: sieve.KindInt},
	)
	if _, err := db.CreateTable("events", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]sieve.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, sieve.Row{sieve.Int(int64(i)), sieve.Int(7), sieve.Int(int64(i % 10))})
	}
	if err := db.BulkInsert("events", rows); err != nil {
		t.Fatal(err)
	}
	store, err := sieve.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sieve.New(store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("events"); err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(&sieve.Policy{
		Owner: 7, Querier: "alice", Purpose: "audit", Relation: "events", Action: sieve.Allow,
	}); err != nil {
		t.Fatal(err)
	}
	return m, db
}

// TestSessionContextCancellationMidScan verifies that cancelling the
// context mid-iteration stops the executor within its check interval
// rather than finishing the scan.
func TestSessionContextCancellationMidScan(t *testing.T) {
	const n = 20000
	m, _ := buildScanDB(t, n, sieve.WithForcedStrategy(sieve.LinearScan))
	sess := m.NewSession(sieve.Metadata{Querier: "alice", Purpose: "audit"})

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := sess.Query(ctx, "SELECT id FROM events")
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
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	// The executor polls the context every few dozen row operations; a
	// cancelled scan must stop well short of the table.
	if extra > 512 {
		t.Fatalf("scan produced %d rows after cancellation", extra)
	}

	// A context cancelled before the query starts fails up front.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := sess.Execute(done, "SELECT id FROM events"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestRowsEarlyCloseUnderLimit verifies streaming early termination: both
// an early Rows.Close and a satisfied LIMIT stop the underlying guarded
// scan within one batch of the last row delivered (the engine's bound,
// internal/engine TestEarlyStopReadBound: the first batch is 64 slots and
// each next one doubles, so a stop at heap slot p has read ≤ 2p+64).
func TestRowsEarlyCloseUnderLimit(t *testing.T) {
	const n = 20000
	m, db := buildScanDB(t, n, sieve.WithForcedStrategy(sieve.LinearScan))
	sess := m.NewSession(sieve.Metadata{Querier: "alice", Purpose: "audit"})
	ctx := context.Background()

	// Warm the guard cache so the measured queries only scan.
	if _, err := sess.Execute(ctx, "SELECT count(*) FROM events"); err != nil {
		t.Fatal(err)
	}

	db.Counters.Reset()
	rows, err := sess.Query(ctx, "SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	var last int64 // id is the heap slot
	for i := 0; i < 5 && rows.Next(); i++ {
		last = rows.Row()[0].I
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Counters.TuplesRead; got > 2*last+64 {
		t.Fatalf("early Close at slot %d read %d tuples; scan ran more than a batch ahead", last, got)
	}

	db.Counters.Reset()
	res, err := sess.Execute(ctx, "SELECT id FROM events LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(res.Rows))
	}
	last = res.Rows[4][0].I
	if got := db.Counters.TuplesRead; got > 2*last+64 {
		t.Fatalf("LIMIT 5 ending at slot %d read %d tuples; scan ran more than a batch ahead", last, got)
	}
}

// TestPreparedPlanCacheInvalidation verifies that a Stmt reuses its
// rewritten plan across executions and transparently re-rewrites after
// AddPolicy and RevokePolicy.
func TestPreparedPlanCacheInvalidation(t *testing.T) {
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := db.Insert("t", sieve.Row{sieve.Int(i), sieve.Int(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	store, _ := sieve.NewStore(db)
	m, err := sieve.New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("t"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPolicy(&sieve.Policy{
		Owner: 0, Querier: "alice", Purpose: "audit", Relation: "t", Action: sieve.Allow,
	}); err != nil {
		t.Fatal(err)
	}

	sess := m.NewSession(sieve.Metadata{Querier: "alice", Purpose: "audit"})
	stmt, err := m.Prepare("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	countRows := func() int {
		t.Helper()
		res, err := stmt.Execute(ctx, sess)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}

	if got := countRows(); got != 5 {
		t.Fatalf("initial visible rows = %d, want 5", got)
	}
	if got := countRows(); got != 5 {
		t.Fatalf("repeat visible rows = %d, want 5", got)
	}
	if stmt.Rewrites() != 1 {
		t.Fatalf("rewrites after 2 executions = %d, want 1 (plan not reused)", stmt.Rewrites())
	}

	// Widening the grant set must invalidate the cached plan.
	second := &sieve.Policy{
		Owner: 1, Querier: "alice", Purpose: "audit", Relation: "t", Action: sieve.Allow,
	}
	if err := m.AddPolicy(second); err != nil {
		t.Fatal(err)
	}
	if got := countRows(); got != 10 {
		t.Fatalf("after AddPolicy visible rows = %d, want 10 (stale plan served)", got)
	}
	if stmt.Rewrites() != 2 {
		t.Fatalf("rewrites after AddPolicy = %d, want 2", stmt.Rewrites())
	}

	// Revocation must invalidate it again and shrink the result.
	if err := m.RevokePolicy(second.ID); err != nil {
		t.Fatal(err)
	}
	if got := countRows(); got != 5 {
		t.Fatalf("after RevokePolicy visible rows = %d, want 5 (stale plan served)", got)
	}
	if stmt.Rewrites() != 3 {
		t.Fatalf("rewrites after RevokePolicy = %d, want 3", stmt.Rewrites())
	}
}

// TestConcurrentSessionsSharedMiddleware runs several sessions (distinct
// queriers, so distinct guarded expressions regenerate concurrently) plus
// a policy writer against one Middleware. Run under -race this exercises
// the executor's per-query counters, the shared prepared-statement plan
// cache, and single-flight guard generation.
func TestConcurrentSessionsSharedMiddleware(t *testing.T) {
	const (
		queriers = 6
		rowsPerQ = 200
		iters    = 30
	)
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]sieve.Row, 0, queriers*rowsPerQ)
	id := int64(0)
	for q := 0; q < queriers; q++ {
		for i := 0; i < rowsPerQ; i++ {
			rows = append(rows, sieve.Row{sieve.Int(id), sieve.Int(int64(q))})
			id++
		}
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	store, _ := sieve.NewStore(db)
	m, err := sieve.New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("t"); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queriers; q++ {
		if err := m.AddPolicy(&sieve.Policy{
			Owner: int64(q), Querier: fmt.Sprintf("user%d", q), Purpose: "audit",
			Relation: "t", Action: sieve.Allow,
		}); err != nil {
			t.Fatal(err)
		}
	}
	shared, err := m.Prepare("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, queriers+1)
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			sess := m.NewSession(sieve.Metadata{Querier: fmt.Sprintf("user%d", q), Purpose: "audit"})
			for i := 0; i < iters; i++ {
				var got int
				switch i % 3 {
				case 0: // ad-hoc materialised
					res, err := sess.Execute(ctx, "SELECT id FROM t")
					if err != nil {
						errs <- err
						return
					}
					got = len(res.Rows)
				case 1: // ad-hoc streaming
					rs, err := sess.Query(ctx, "SELECT id FROM t")
					if err != nil {
						errs <- err
						return
					}
					for rs.Next() {
						got++
					}
					if err := rs.Err(); err != nil {
						errs <- err
						return
					}
					rs.Close()
				default: // shared prepared statement
					res, err := shared.Execute(ctx, sess)
					if err != nil {
						errs <- err
						return
					}
					got = len(res.Rows)
				}
				if got < rowsPerQ {
					errs <- fmt.Errorf("user%d iteration %d saw %d rows, want >= %d", q, i, got, rowsPerQ)
					return
				}
			}
		}(q)
	}
	// A concurrent writer inserts additional policies for existing
	// queriers, exercising trigger-driven invalidation under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := m.AddPolicy(&sieve.Policy{
				Owner: int64(i % queriers), Querier: fmt.Sprintf("user%d", i%queriers),
				Purpose: "audit", Relation: "t", Action: sieve.Allow,
				Conditions: []sieve.ObjectCondition{
					sieve.Compare("id", sieve.Ge, sieve.Int(0)),
				},
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
