package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestBindOnFirstUseConcurrently: eight goroutines open one Prepared at the
// same moment, its WHERE a registered guard disjunction with a derived-value
// subquery in an arm. The statement is bound, and the registration compiled
// with its names resolved against the table, by whichever goroutine gets
// there first, once: the rows are the unprepared run's, and the guard sits
// on the table's scan with its registration, unwalked by the statement's
// pass, which holds none of its subqueries. Run under -race.
func TestBindOnFirstUseConcurrently(t *testing.T) {
	db := dispatchFixture(t, storage.KindInt)
	stmt := sqlparser.MustParse("SELECT owner, x FROM t WHERE tag IS NOT NULL AND " +
		"(t.owner = 1 AND t.x < 50 OR t.owner = 2 AND t.x = (SELECT max(u.x) FROM t AS u WHERE u.owner = t.owner) OR t.owner = 3)")
	want, err := db.QueryStmt(stmt)
	if err != nil || len(want.Rows) == 0 {
		t.Fatalf("unprepared: %d rows, err %v", len(want.Rows), err)
	}
	guard := sqlparser.Conjuncts(stmt.Body.Where)[1]
	sf := db.ShareFilter("t", guard)
	defer sf.Release()
	prep := db.Prepare(stmt)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := Collect(prep.Stream(context.Background()))
			if err != nil || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("concurrent first execution diverged (err %v)", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	src := &prep.cache.bound.body.sources[0]
	if len(src.conjs) != 2 || src.conjs[1] != sf || src.conjs[0] != &prep.cache.bound.body.own[0] {
		t.Fatalf("scan conjuncts %v: want the statement's own, then the guard's registration", src.conjs)
	}
	if len(src.b.subs) != 0 || src.parallelSafe() {
		t.Fatalf("the statement's pass bound %d of the guard's subqueries, parallel-safe %v: want none, and a scan that does not fan out", len(src.b.subs), src.parallelSafe())
	}
}
