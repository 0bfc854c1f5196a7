package engine

import (
	"sync"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
)

// Concurrent readers over one database: queries from multiple goroutines
// must not race on the storage layer. Each goroutine runs its own executor
// with private counters (the documented pattern; DB.Counters itself is
// single-query state).
func TestConcurrentReaders(t *testing.T) {
	db := newTestDB(t, MySQL())
	queries := []string{
		"SELECT count(*) FROM wifi WHERE owner = 1",
		"SELECT * FROM wifi WHERE wifiAP = 100 AND ts_time = TIME '08:00'",
		"SELECT owner, count(*) FROM wifi GROUP BY owner",
		"SELECT W.id FROM wifi AS W, membership AS M WHERE M.uid = W.owner AND M.gid = 0",
	}
	stmts := make([]*sqlparser.SelectStmt, len(queries))
	for i, q := range queries {
		s, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = s
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ex := &executor{db: db, counters: &Counters{}}
				sb, err := db.bind(stmts[(w+i)%len(stmts)])
				if err == nil {
					_, err = ex.selectStmt(sb, nil, nil)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
