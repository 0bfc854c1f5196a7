package loadgen_test

import (
	"net/http/httptest"
	"testing"

	"github.com/sieve-db/sieve/internal/experiment"
	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/server"
)

// TestCorpusDoors is the corpus harness over the client-facing doors:
// every query of each workload's corpus, for its three busiest queriers
// and a default-deny querier, through Session.Execute, a prepared
// statement's Query and Execute, the wire client's Query and prepared
// Query against an in-process sieve-server, database/sql (sievesql) and
// the fake mysql and postgres remotes. Each must equal Session.Query — the
// reference — value for value, and each streaming door, the reference
// included, closed after five rows must return its first five.
func TestCorpusDoors(t *testing.T) {
	for _, name := range []string{"campus", "mall", "hospital"} {
		t.Run(name, func(t *testing.T) {
			sc, err := experiment.TrafficScenario(experiment.TestConfig(), name)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(server.Config{Middleware: sc.M, AllowDemoTokens: true})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			wireQuery, wirePrepared := loadgen.Wire(ts.URL)
			defer wireQuery.Close()
			doors := []loadgen.Runner{
				loadgen.SessionExecute(sc.M), loadgen.StmtQuery(sc.M), loadgen.StmtExecute(sc.M),
				wireQuery, wirePrepared, loadgen.SieveSQL(sc.M),
			}
			for _, dialect := range []string{"mysql", "postgres"} {
				fake, err := loadgen.FakeRemote(sc.M, dialect)
				if err != nil {
					t.Fatal(err)
				}
				defer fake.Close()
				doors = append(doors, fake)
			}
			if err := loadgen.Replay(t.Context(), sc.Purpose, sc.Queriers[:3], sc.Queries, loadgen.SessionQuery(sc.M), doors...); err != nil {
				t.Fatal(err)
			}
		})
	}
}
