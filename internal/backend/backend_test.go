package backend_test

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"reflect"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/backend"
	"github.com/sieve-db/sieve/internal/backend/backendtest"
	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// newFixture builds a middleware over one protected relation whose schema
// exercises every scalar kind the wire has to carry, with "alice"/"audit"
// granted a date-and-time-windowed view of owner 7's rows.
func newFixture(t testing.TB) (*core.Middleware, *core.Session) {
	t.Helper()
	db := engine.New(engine.MySQL())
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "day", Type: storage.KindDate},
		storage.Column{Name: "tod", Type: storage.KindTime},
		storage.Column{Name: "note", Type: storage.KindString},
		storage.Column{Name: "score", Type: storage.KindFloat},
	)
	if _, err := db.CreateTable("events", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, 0, 64)
	for i := 0; i < 64; i++ {
		note := storage.NewString("note-" + string(rune('a'+i%4)))
		if i%7 == 0 {
			note = storage.Null
		}
		rows = append(rows, storage.Row{
			storage.NewInt(int64(i)),
			storage.NewInt(7),
			storage.NewDate(int64(i % 10)),
			storage.NewTime(int64(8*3600 + i*60)),
			note,
			storage.NewFloat(float64(i) / 4),
		})
	}
	if err := db.BulkInsert("events", rows); err != nil {
		t.Fatal(err)
	}
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("events"); err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(&policy.Policy{
		Owner: 7, Querier: "alice", Purpose: "audit", Relation: "events", Action: policy.Allow,
		Conditions: []policy.ObjectCondition{
			policy.RangeClosed("day", storage.MustDate("2000-01-01"), storage.MustDate("2000-01-08")),
			policy.Compare("tod", sqlparser.CmpLe, storage.MustTime("20:00")),
		},
	}); err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession(policy.Metadata{Querier: "alice", Purpose: "audit"})
	return m, sess
}

const fixtureQuery = "SELECT id, day, tod, note, score FROM events"

var fixtureKinds = []storage.Kind{
	storage.KindInt, storage.KindDate, storage.KindTime, storage.KindString, storage.KindFloat,
}

// collect drains a backend row stream into a slice.
func collect(t *testing.T, rows backend.Rows) []storage.Row {
	t.Helper()
	defer rows.Close()
	var out []storage.Row
	for rows.Next() {
		out = append(out, rows.Row().Clone())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRemoteOverFake is the wire round trip with no live server: the
// emission ships over the fake driver, the recorded SQL and args must be
// exactly the emission's (args in placeholder order, converted to
// driver-native types), and the canned reply — the embedded baseline
// converted to native values — must decode back to the identical rows.
func TestRemoteOverFake(t *testing.T) {
	for _, dialect := range []string{"mysql", "postgres"} {
		t.Run(dialect, func(t *testing.T) {
			_, sess := newFixture(t)
			ctx := context.Background()

			base, err := sess.Execute(ctx, fixtureQuery)
			if err != nil {
				t.Fatal(err)
			}
			em, err := sess.RewriteSQL(fixtureQuery, dialect)
			if err != nil {
				t.Fatal(err)
			}
			if len(em.Args) == 0 {
				t.Fatalf("fixture emission has no bound args; policy conditions should parameterise")
			}

			fake := backendtest.New()
			fake.Push(backendtest.ResultFromRows(base.Columns, base.Rows))
			b, err := backend.NewRemote(sql.OpenDB(fake.Connector()), dialect)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := b.Ping(ctx); err != nil {
				t.Fatal(err)
			}

			rows, err := b.Query(ctx, em, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, backend.TypedRows(rows, fixtureKinds))
			if !reflect.DeepEqual(got, base.Rows) {
				t.Fatalf("remote decode diverges from baseline:\ngot  %v\nwant %v", got, base.Rows)
			}

			call, ok := fake.LastCall()
			if !ok {
				t.Fatal("fake recorded no call")
			}
			if call.SQL != em.SQL {
				t.Fatalf("shipped SQL drifted from the emission:\nshipped %s\nemitted %s", call.SQL, em.SQL)
			}
			if len(call.Args) != len(em.Args) {
				t.Fatalf("shipped %d args, emission binds %d", len(call.Args), len(em.Args))
			}
			for i, a := range em.Args {
				want := a.Native()
				if !reflect.DeepEqual(call.Args[i], driver.Value(want)) {
					t.Fatalf("arg %d shipped as %#v, want %#v", i+1, call.Args[i], want)
				}
			}

			c := b.Counters()
			if c.Queries != 1 || c.RowsDecoded != int64(len(base.Rows)) || c.ArgsBound != int64(len(em.Args)) {
				t.Fatalf("counters = %+v", c)
			}
		})
	}
}

// TestRemoteDeltaFraming pins the Δ policy: an emission calling the
// sieve_delta helper is refused unless the helper is declared installed.
func TestRemoteDeltaFraming(t *testing.T) {
	em := &engine.Emission{
		Dialect: "mysql",
		SQL:     "WITH `t_sieve` AS (SELECT * FROM `t` WHERE " + core.DeltaUDFName + "(1, `t`.`id`) = TRUE) SELECT * FROM `t_sieve`",
	}
	fake := backendtest.New()
	b, err := backend.NewRemote(sql.OpenDB(fake.Connector()), "mysql")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, err = b.Query(context.Background(), em, nil)
	if err == nil || !strings.Contains(err.Error(), core.DeltaUDFName) {
		t.Fatalf("Δ-bearing emission not refused: %v", err)
	}
	if calls := fake.Calls(); len(calls) != 0 {
		t.Fatalf("refused emission still shipped: %v", calls)
	}

	helper, err := backend.NewRemote(sql.OpenDB(fake.Connector()), "mysql", backend.WithDeltaHelper())
	if err != nil {
		t.Fatal(err)
	}
	defer helper.Close()
	rows, err := helper.Query(context.Background(), em, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if _, ok := fake.LastCall(); !ok {
		t.Fatal("helper-declared remote did not ship the emission")
	}
}

// TestRemoteDialectContract covers constructor validation and emission/
// backend dialect mismatches.
func TestRemoteDialectContract(t *testing.T) {
	fake := backendtest.New()
	if _, err := backend.NewRemote(sql.OpenDB(fake.Connector()), "oracle"); err == nil {
		t.Fatal("NewRemote accepted an unknown dialect")
	}
	b, err := backend.NewRemote(sql.OpenDB(fake.Connector()), "postgresql") // normalises
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Dialect() != "postgres" {
		t.Fatalf("Dialect = %q", b.Dialect())
	}
	if _, err := b.Query(context.Background(), &engine.Emission{Dialect: "mysql", SQL: "SELECT 1"}, nil); err == nil {
		t.Fatal("postgres remote accepted a mysql emission")
	}
}

// TestStmtQueryCachedEmission routes a prepared statement through a
// backend twice and checks the rewrite ran once — the middleware's
// amortisation carried to the wire.
func TestStmtQueryCachedEmission(t *testing.T) {
	m, sess := newFixture(t)
	st, err := m.Prepare(fixtureQuery)
	if err != nil {
		t.Fatal(err)
	}
	fake := backendtest.New()
	b, err := backend.NewRemote(sql.OpenDB(fake.Connector()), "mysql")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		rows, err := backend.StmtQuery(ctx, b, sess, st)
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
	}
	if got := st.Rewrites(); got != 1 {
		t.Fatalf("prepared statement rewrote %d times across 3 backend runs", got)
	}
	calls := fake.Calls()
	if len(calls) != 3 {
		t.Fatalf("fake saw %d calls", len(calls))
	}
	for _, c := range calls[1:] {
		if c.SQL != calls[0].SQL {
			t.Fatalf("cached emission SQL drifted between runs")
		}
	}
}

// TestExecCountsRows checks Exec's drain semantics and counter split.
func TestExecCountsRows(t *testing.T) {
	_, sess := newFixture(t)
	ctx := context.Background()
	base, err := sess.Execute(ctx, fixtureQuery)
	if err != nil {
		t.Fatal(err)
	}

	fake := backendtest.New()
	fake.Push(backendtest.ResultFromRows(base.Columns, base.Rows))
	rem, err := backend.NewRemote(sql.OpenDB(fake.Connector()), "mysql")
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	em, err := sess.RewriteSQL(fixtureQuery, "mysql")
	if err != nil {
		t.Fatal(err)
	}
	n, err := rem.Exec(ctx, em, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(base.Rows)) {
		t.Fatalf("remote Exec = %d rows, want %d", n, len(base.Rows))
	}
	if c := rem.Counters(); c.Execs != 1 || c.Queries != 0 {
		t.Fatalf("remote counters = %+v", c)
	}
}

// TestTypedRowsMismatch checks coercion failure surfaces as an error, not
// a mistyped value.
func TestTypedRowsMismatch(t *testing.T) {
	fake := backendtest.New()
	fake.Push(backendtest.Result{
		Cols: []string{"x"},
		Rows: [][]driver.Value{{"definitely not a clock"}},
	})
	b, err := backend.NewRemote(sql.OpenDB(fake.Connector()), "mysql")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rows, err := b.Query(context.Background(), &engine.Emission{Dialect: "mysql", SQL: "SELECT x FROM t"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	typed := backend.TypedRows(rows, []storage.Kind{storage.KindTime})
	if typed.Next() {
		t.Fatal("mistyped payload passed through")
	}
	if typed.Err() == nil {
		t.Fatal("coercion failure did not surface as an error")
	}
}

// TestFakeQueueSemantics pins the fake's FIFO queue, default result and
// failure injection.
func TestFakeQueueSemantics(t *testing.T) {
	fake := backendtest.New()
	fake.SetDefault(backendtest.Result{Cols: []string{"d"}, Rows: [][]driver.Value{{int64(0)}}})
	fake.Push(backendtest.Result{Cols: []string{"a"}, Rows: [][]driver.Value{{int64(1)}, {int64(2)}}})
	db := sql.OpenDB(fake.Connector())
	defer db.Close()

	count := func() int {
		rows, err := db.Query("SELECT n")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		return n
	}
	if got := count(); got != 2 {
		t.Fatalf("queued result served %d rows, want 2", got)
	}
	if got := count(); got != 1 {
		t.Fatalf("default result served %d rows, want 1", got)
	}
	if calls := fake.Calls(); len(calls) != 2 || calls[0].SQL != "SELECT n" {
		t.Fatalf("calls = %v", calls)
	}
	fake.FailWith(context.DeadlineExceeded)
	if _, err := db.Query("SELECT n"); err == nil {
		t.Fatal("FailWith did not fail the query")
	}
}

// TestForSpecs pins the spec grammar: fakes come back with their Fake,
// +delta parses off the scheme before driver lookup, and bad specs name
// their options. With no third-party drivers compiled in, dsn specs can
// only be proven up to sql.Open's unknown-driver error — which is the
// point of the message.
func TestForSpecs(t *testing.T) {
	b, fake, err := backend.For("fake-postgres")
	if err != nil || fake == nil || b.Dialect() != "postgres" {
		t.Fatalf("fake-postgres spec: %v, fake=%v", err, fake)
	}
	b.Close()

	// A Δ-declared DSN spec: the +delta suffix must strip before driver
	// resolution, so the error names "mysql", not "mysql+delta".
	_, _, err = backend.For("mysql+delta://user@tcp(host)/db")
	if err == nil || !strings.Contains(err.Error(), `"mysql" driver compiled`) {
		t.Fatalf("mysql+delta spec: %v", err)
	}
	if _, _, err := backend.For("oracle://dsn"); err == nil || !strings.Contains(err.Error(), "dialect") {
		t.Fatalf("unknown driver spec: %v", err)
	}
	if _, _, err := backend.For("bogus"); err == nil {
		t.Fatal("bogus spec must error")
	}
}
