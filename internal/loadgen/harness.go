package loadgen

import (
	"context"
	"fmt"
	"slices"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

// Result is what one door returns for one query: the column names, the
// rows, and — from doors that carry them — the engine's work counters.
type Result struct {
	Cols     []string
	Rows     []storage.Row
	Counters *engine.Counters
}

// Runner is one door a client can take into the middleware. Every door
// must return exactly what Session.Query returns for the same querier,
// purpose and SQL; Replay holds it to that, and the soak's executors are
// built from the same doors.
type Runner struct {
	Name string
	// Run executes sql as md and returns its result — all of it when
	// limit < 0, otherwise closed after limit rows (Replay asks that only
	// of doors that set Streams).
	Run func(ctx context.Context, md policy.Metadata, sql string, limit int) (Result, error)
	// Streams marks a door whose result can be closed early.
	Streams bool
	// Close releases what the door holds; nil when it holds nothing. It is
	// safe to call twice.
	Close func()
}

// DenyQuerier holds no policy in any corpus. Replay runs it beside the
// given queriers, so every door is also held to default deny.
const DenyQuerier = "nobody@example"

// prefixRows is where Replay closes a streaming door early.
const prefixRows = 5

// Replay is the corpus harness: every query, for every querier and for
// DenyQuerier, runs through ref and then through each door, and the
// door's result must Compare equal to ref's; a streaming door — ref
// included — is also closed after prefixRows rows and must return the
// reference's first rows. A default-deny result of a RowCheck query must
// be empty, and at least a third of the reference results must hold rows,
// or the corpus proved nothing. The first failure is returned, naming the
// door, the query and the querier.
func Replay(ctx context.Context, purpose string, queriers []string, queries []Query, ref Runner, doors ...Runner) error {
	nonEmpty := 0
	queriers = append(slices.Clip(queriers), DenyQuerier)
	for _, q := range queries {
		for _, who := range queriers {
			md := policy.Metadata{Querier: who, Purpose: purpose}
			want, err := ref.Run(ctx, md, q.SQL, -1)
			if err != nil {
				return fmt.Errorf("reference %s, query %s, querier %s: %w", ref.Name, q.Name, who, err)
			}
			if len(want.Rows) > 0 {
				nonEmpty++
				if who == DenyQuerier && q.RowCheck {
					return fmt.Errorf("reference %s, query %s: default-deny querier %s sees %d rows", ref.Name, q.Name, who, len(want.Rows))
				}
			}
			for i, d := range append([]Runner{ref}, doors...) {
				if i > 0 {
					got, err := d.Run(ctx, md, q.SQL, -1)
					if err == nil {
						err = Compare(want, got)
					}
					if err != nil {
						return fmt.Errorf("door %s, query %s, querier %s: %w", d.Name, q.Name, who, err)
					}
				}
				if !d.Streams {
					continue
				}
				got, err := d.Run(ctx, md, q.SQL, prefixRows)
				if err == nil {
					err = Compare(Result{Cols: want.Cols, Rows: want.Rows[:min(prefixRows, len(want.Rows))]}, got)
				}
				if err != nil {
					return fmt.Errorf("door %s, query %s, querier %s, closed after %d rows: %w", d.Name, q.Name, who, prefixRows, err)
				}
			}
		}
	}
	if total := len(queries) * len(queriers); nonEmpty*3 < total {
		return fmt.Errorf("only %d of %d reference results hold rows; the corpus proves nothing", nonEmpty, total)
	}
	return nil
}

// Compare reports how got differs from want: the columns, then the rows
// value by value, kind included — a door whose transport loses kinds
// re-types its own rows — then the engine counters when both results
// carry them. nil means the same result.
func Compare(want, got Result) error {
	if !slices.Equal(got.Cols, want.Cols) {
		return fmt.Errorf("columns %v, want %v", got.Cols, want.Cols)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, row := range got.Rows {
		if len(row) != len(want.Cols) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(row), len(want.Cols))
		}
		for c, v := range row {
			if v != want.Rows[i][c] {
				return fmt.Errorf("row %d column %s: %s, want %s", i, want.Cols[c], v, want.Rows[i][c])
			}
		}
	}
	if got.Counters != nil && want.Counters != nil && *got.Counters != *want.Counters {
		return fmt.Errorf("counters diverge:\ngot:  %+v\nwant: %+v", *got.Counters, *want.Counters)
	}
	return nil
}

// columnKinds is each column's kind in res: that of its first non-NULL
// value, KindNull when it has none.
func columnKinds(res Result) []storage.Kind {
	kinds := make([]storage.Kind, len(res.Cols))
	for c := range kinds {
		for _, r := range res.Rows {
			if !r[c].IsNull() {
				kinds[c] = r[c].K
				break
			}
		}
	}
	return kinds
}
