package sieve_test

import (
	"reflect"
	"testing"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/workload"
)

// TestEmissionOverExamplesCorpus pins, one subtest per examples-corpus
// query, that the sieve emission re-parses to the rewritten AST itself on
// this static fixture. The mysql and postgres emissions' dialect contract
// and their round trip are TestBackendRoundTrip's.
func TestEmissionOverExamplesCorpus(t *testing.T) {
	demo, err := workload.NewDemo(sieve.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	qm := sieve.Metadata{Querier: demo.Querier("auto"), Purpose: "analytics"}
	sess := demo.M.NewSession(qm)
	for _, q := range demo.Campus.CorpusQueries() {
		t.Run(q.Name, func(t *testing.T) {
			rewritten, _, err := demo.M.RewriteQuery(q.SQL, qm)
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			sv, err := sess.RewriteSQL(q.SQL, "sieve")
			if err != nil {
				t.Fatalf("sieve emit: %v", err)
			}
			back, err := sqlparser.Parse(sv.SQL)
			if err != nil {
				t.Fatalf("sieve emission does not re-parse: %v\n%s", err, sv.SQL)
			}
			if !reflect.DeepEqual(rewritten, back) {
				t.Fatalf("sieve emission does not round-trip to the rewritten AST:\n%s", sv.SQL)
			}
		})
	}
}

// TestBackendRoundTrip holds the backend connector doors to Session.Query
// on the examples corpus, for the three busiest queriers and a
// default-deny querier, through the corpus harness: database/sql over
// sievesql, and backend.Remote over the fake mysql and postgres drivers,
// whose recorded SQL must be the cached emission byte for byte with args
// native and in placeholder order, meeting its dialect's contract
// (loadgen.FakeRemote checks that).
func TestBackendRoundTrip(t *testing.T) {
	demo, err := workload.NewDemo(sieve.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	var corpus []loadgen.Query
	for _, q := range demo.Campus.CorpusQueries() {
		corpus = append(corpus, loadgen.Query{Name: q.Name, SQL: q.SQL})
	}
	doors := []loadgen.Runner{loadgen.SieveSQL(demo.M)}
	for _, dialect := range []string{"mysql", "postgres"} {
		fake, err := loadgen.FakeRemote(demo.M, dialect)
		if err != nil {
			t.Fatal(err)
		}
		defer fake.Close()
		doors = append(doors, fake)
	}
	for _, door := range doors {
		t.Run(door.Name, func(t *testing.T) {
			queriers := workload.TopQueriers(demo.Policies, 3, 1)
			if err := loadgen.Replay(t.Context(), "analytics", queriers, corpus, loadgen.SessionQuery(demo.M), door); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEmittedOffsetExecutes pins OFFSET end to end on the embedded engine:
// the paging corpus query must skip exactly the offset rows.
func TestEmittedOffsetExecutes(t *testing.T) {
	demo, err := workload.NewDemo(sieve.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	qm := sieve.Metadata{Querier: demo.Querier("auto"), Purpose: "analytics"}
	sess := demo.M.NewSession(qm)

	all, err := sess.Execute(t.Context(), "SELECT id FROM "+workload.TableWiFi+" ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Rows) < 10 {
		t.Skipf("querier sees only %d rows; need >= 10", len(all.Rows))
	}
	page, err := sess.Execute(t.Context(), "SELECT id FROM "+workload.TableWiFi+" ORDER BY id LIMIT 4 OFFSET 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Rows) != 4 {
		t.Fatalf("LIMIT 4 OFFSET 3 returned %d rows", len(page.Rows))
	}
	for i := range page.Rows {
		if page.Rows[i][0].I != all.Rows[i+3][0].I {
			t.Fatalf("offset skew at %d: got id %d want %d", i, page.Rows[i][0].I, all.Rows[i+3][0].I)
		}
	}
}
