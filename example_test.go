package sieve_test

import (
	"context"
	"database/sql"
	"fmt"
	"log"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/sievesql"
)

// Example demonstrates the minimal SIEVE session of the package comment:
// one protected relation, one policy, one session streaming an enforced
// query.
func Example() {
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
		sieve.Column{Name: "wifiAP", Type: sieve.KindInt},
	)
	if _, err := db.CreateTable("WiFi_Dataset", schema); err != nil {
		log.Fatal(err)
	}
	for _, r := range []sieve.Row{
		{sieve.Int(1), sieve.Int(120), sieve.Int(1200)},
		{sieve.Int(2), sieve.Int(999), sieve.Int(1200)},
	} {
		if err := db.Insert("WiFi_Dataset", r); err != nil {
			log.Fatal(err)
		}
	}
	store, _ := sieve.NewStore(db)
	m, _ := sieve.New(store)
	if err := m.Protect("WiFi_Dataset"); err != nil {
		log.Fatal(err)
	}
	_ = store.Insert(&sieve.Policy{
		Owner: 120, Querier: "Prof. Smith", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: sieve.Allow,
	})

	sess := m.NewSession(sieve.Metadata{Querier: "Prof. Smith", Purpose: "Attendance"})
	rows, err := sess.Query(context.Background(), "SELECT id FROM WiFi_Dataset")
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	visible := 0
	for rows.Next() {
		visible++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("visible rows:", visible)
	// Output: visible rows: 1
}

// ExampleStmt prepares a query once and executes it repeatedly: the parse
// and the policy rewrite are paid on the first call only, until a policy
// change invalidates the cached plan.
func ExampleStmt() {
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		log.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		if err := db.Insert("t", sieve.Row{sieve.Int(i), sieve.Int(i % 2)}); err != nil {
			log.Fatal(err)
		}
	}
	store, _ := sieve.NewStore(db)
	m, _ := sieve.New(store)
	if err := m.Protect("t"); err != nil {
		log.Fatal(err)
	}
	_ = store.Insert(&sieve.Policy{
		Owner: 1, Querier: "alice", Purpose: "audit", Relation: "t", Action: sieve.Allow,
	})

	sess := m.NewSession(sieve.Metadata{Querier: "alice", Purpose: "audit"})
	stmt, err := m.Prepare("SELECT id FROM t")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := stmt.Execute(ctx, sess)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("run", i, "rows:", len(res.Rows), "rewrites:", stmt.Rewrites())
	}
	// Output:
	// run 0 rows: 2 rewrites: 1
	// run 1 rows: 2 rewrites: 1
	// run 2 rows: 2 rewrites: 1
}

// ExampleSession_Rewrite shows how to inspect the SQL SIEVE would send
// to the underlying database.
func ExampleSession_Rewrite() {
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		log.Fatal(err)
	}
	store, _ := sieve.NewStore(db)
	m, _ := sieve.New(store)
	if err := m.Protect("t"); err != nil {
		log.Fatal(err)
	}
	_ = store.Insert(&sieve.Policy{
		Owner: 7, Querier: "alice", Purpose: "audit", Relation: "t", Action: sieve.Allow,
	})
	sess := m.NewSession(sieve.Metadata{Querier: "alice", Purpose: "audit"})
	sql, report, err := sess.Rewrite("SELECT * FROM t")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sql)
	fmt.Println("policies:", report.Decisions[0].Policies)
	// Output:
	// WITH t_sieve AS (SELECT * FROM t FORCE INDEX (owner) WHERE t.owner = 7 AND t.owner = 7) SELECT * FROM t_sieve AS t
	// policies: 1
}

// Example_databaseSQL mirrors examples/sqldriver: SIEVE behind Go's
// standard database/sql API. The DSN names the querier and purpose;
// every connection is a policy-enforced session, so the query loop is
// plain database/sql code.
func Example_databaseSQL() {
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
	)
	if _, err := db.CreateTable("visits", schema); err != nil {
		log.Fatal(err)
	}
	for i := int64(1); i <= 6; i++ {
		if err := db.Insert("visits", sieve.Row{sieve.Int(i), sieve.Int(100 + i%2)}); err != nil {
			log.Fatal(err)
		}
	}
	store, _ := sieve.NewStore(db)
	m, _ := sieve.New(store)
	if err := m.Protect("visits"); err != nil {
		log.Fatal(err)
	}
	_ = store.Insert(&sieve.Policy{
		Owner: 101, Querier: "alice", Purpose: "audit", Relation: "visits", Action: sieve.Allow,
	})

	sievesql.SetDefault(m)
	sqldb, err := sql.Open("sieve", "querier=alice&purpose=audit")
	if err != nil {
		log.Fatal(err)
	}
	defer sqldb.Close()
	var n int
	if err := sqldb.QueryRow("SELECT count(*) FROM visits").Scan(&n); err != nil {
		log.Fatal(err)
	}
	fmt.Println("alice counts", n, "rows via database/sql")
	// Output: alice counts 3 rows via database/sql
}

// ExampleFactorDeny folds a deny policy into the allow set (§3.1).
func ExampleFactorDeny() {
	allow := &sieve.Policy{
		Owner: 9, Querier: "john", Purpose: "social", Relation: "loc", Action: sieve.Allow,
	}
	deny := &sieve.Policy{
		Owner: 9, Querier: sieve.AnyQuerier, Purpose: sieve.AnyPurpose,
		Relation: "loc", Action: sieve.Deny,
		Conditions: []sieve.ObjectCondition{
			sieve.Compare("room", sieve.Eq, sieve.Str("office")),
		},
	}
	out := sieve.FactorDeny([]*sieve.Policy{allow}, []*sieve.Policy{deny})
	for _, p := range out {
		fmt.Println(p.Conditions[0].String())
	}
	// Output: room != 'office'
}
