package sieve_test

import (
	"context"
	"database/sql"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/sievesql"
)

// bindFixture protects wifi (id, owner, wifiAP), 30 rows over owners 1-3,
// and grants querier q/p owner 1's rows: owner 1 is permitted, owner 2 has
// rows q may not see, and no row has owner 9999.
func bindFixture(t *testing.T) *sieve.Middleware {
	t.Helper()
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
		sieve.Column{Name: "wifiAP", Type: sieve.KindInt},
	)
	if _, err := db.CreateTable("wifi", schema); err != nil {
		t.Fatal(err)
	}
	var rows []sieve.Row
	for i := int64(0); i < 30; i++ {
		rows = append(rows, sieve.Row{sieve.Int(i), sieve.Int(1 + i%3), sieve.Int(100 + i%4)})
	}
	if err := db.BulkInsert("wifi", rows); err != nil {
		t.Fatal(err)
	}
	store, err := sieve.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sieve.New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(&sieve.Policy{Owner: 1, Querier: "q", Purpose: "p", Relation: "wifi", Action: sieve.Allow}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBindFailsAtOpen: a column that does not exist, or that two FROM
// entries both have, fails the open — the outer query's, a WITH body's, a
// derived table's, an EXISTS, IN or scalar subquery's — at every door, and
// with the same error whether the owner the query names is permitted,
// denied or absent: the error is raised once, from the statement's text,
// before a row is read, so it tells the querier nothing about the rows.
func TestBindFailsAtOpen(t *testing.T) {
	m := bindFixture(t)
	ctx := context.Background()
	md := sieve.Metadata{Querier: "q", Purpose: "p"}
	sess := m.NewSession(md)
	drv := sql.OpenDB(sievesql.NewConnector(m, md))
	defer drv.Close()
	srv, err := server.New(server.Config{Middleware: m, AllowDemoTokens: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wire, err := client.New(ts.URL, "demo:q|p").OpenSession(ctx, "")
	if err != nil {
		t.Fatal(err)
	}

	// Each door returns the open's error; a door that opens closes what it
	// opened and returns nil.
	doors := map[string]func(q string) error{
		"Session.Query": func(q string) error {
			rows, err := sess.Query(ctx, q)
			if err == nil {
				rows.Close()
			}
			return err
		},
		"Stmt.Query": func(q string) error {
			st, err := sess.Prepare(q)
			if err != nil {
				return err
			}
			rows, err := st.Query(ctx, sess)
			if err == nil {
				rows.Close()
			}
			return err
		},
		"sievesql": func(q string) error {
			rows, err := drv.QueryContext(ctx, q)
			if err == nil {
				rows.Close()
			}
			return err
		},
		"server /query": func(q string) error {
			rows, err := wire.Query(ctx, q)
			if err == nil {
				rows.Close()
			}
			return err
		},
	}
	const owner = "SELECT id FROM wifi WHERE owner = %d AND "
	queries := []struct{ where, sql, want string }{
		{"outer", owner + "nosuch = 1", "unknown column"},
		{"outer", "SELECT a.id FROM wifi AS a, wifi AS b WHERE a.owner = %d AND a.id = b.id AND wifiAP = 100", `ambiguous column "wifiAP"`},
		{"WITH body", "WITH c AS (" + owner + "wifi.nosuch = 1) SELECT id FROM c", "unknown column"},
		{"WITH body", "WITH c AS (SELECT a.id FROM wifi AS a, wifi AS b WHERE a.owner = %d AND owner = 2) SELECT id FROM c", `ambiguous column "owner"`},
		{"derived table", "SELECT d.id FROM (" + owner + "nosuch = 1) AS d", "unknown column"},
		{"derived table", "SELECT d.id FROM (SELECT a.id FROM wifi AS a, wifi AS b WHERE a.owner = %d AND a.id = id) AS d", `ambiguous column "id"`},
		{"EXISTS", owner + "EXISTS (SELECT 1 FROM wifi AS w WHERE w.nosuch = w.id)", "unknown column"},
		{"EXISTS", owner + "EXISTS (SELECT 1 FROM wifi AS w, wifi AS v WHERE wifiAP = 101)", `ambiguous column "wifiAP"`},
		{"IN", owner + "id IN (SELECT nosuch FROM wifi AS w)", "unknown column"},
		{"IN", owner + "id IN (SELECT id FROM wifi AS w, wifi AS v)", `ambiguous column "id"`},
		{"scalar", owner + "id = (SELECT max(w.nosuch) FROM wifi AS w)", "unknown column"},
		{"scalar", owner + "id = (SELECT max(owner) FROM wifi AS w, wifi AS v)", `ambiguous column "owner"`},
	}
	for _, q := range queries {
		for name, door := range doors {
			var errs []string
			for _, o := range []int64{1, 2, 9999} { // permitted, denied, absent
				err := door(fmt.Sprintf(q.sql, o))
				if err == nil {
					t.Fatalf("%s, %s: %q opened for owner %d", name, q.where, q.sql, o)
				}
				errs = append(errs, err.Error())
			}
			if !strings.Contains(errs[0], q.want) {
				t.Errorf("%s, %s: %q: error %q, want %q", name, q.where, q.sql, errs[0], q.want)
			}
			if errs[1] != errs[0] || errs[2] != errs[0] {
				t.Errorf("%s, %s: %q: errors differ by owner: permitted %q, denied %q, absent %q", name, q.where, q.sql, errs[0], errs[1], errs[2])
			}
		}
	}
}
