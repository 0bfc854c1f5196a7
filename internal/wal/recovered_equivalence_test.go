package wal_test

// Recovered-equivalence: a store rebuilt by crash recovery must be
// indistinguishable from one that never crashed. Two gates ride on the
// earlier PRs' strongest suites:
//
//   - the corpus harness (loadgen.Replay): every corpus query, for every
//     querier, returns identical rows on a recovered middleware and on a
//     never-crashed mirror (that the scan filter agrees with the row
//     evaluator on the same corpus is the engine oracle's job,
//     internal/engine/vector_oracle_test.go);
//   - the signature-cardinality claim (the million-policy regime): on a
//     recovered store, guard states and cached plans still number
//     O(profiles) not O(queriers), and a revocation logged before the
//     crash keeps its signature retired.

import (
	"context"
	"fmt"
	"testing"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/wal"
	"github.com/sieve-db/sieve/internal/workload"
)

// buildEquivEnv is buildOracleEnv's shape: the test campus, its policy
// corpus, and a middleware protecting the WiFi relation.
func buildEquivEnv(t *testing.T) (*workload.Campus, *policy.Store, []*policy.Policy, *core.Middleware) {
	t.Helper()
	c, err := workload.BuildCampus(workload.TestCampusConfig(), engine.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	c.DB.UDFOverheadIters = 0
	ps := c.GeneratePolicies(workload.TestPolicyConfig())
	store, err := policy.NewStore(c.DB)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.BulkLoad(ps); err != nil {
		t.Fatal(err)
	}
	m, err := core.New(store, core.WithGroups(c.Groups()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(workload.TableWiFi); err != nil {
		t.Fatal(err)
	}
	return c, store, ps, m
}

// equivMutate is the post-boot mutation suffix both sides apply: fresh
// events, two new grants for the measured querier, one revoked again.
// Returns the revoked policy's id.
func equivMutate(t *testing.T, m *core.Middleware, db *engine.DB, querier string) int64 {
	t.Helper()
	for i := 0; i < 40; i++ {
		row := storage.Row{
			storage.NewInt(int64(900000 + i)), storage.NewInt(int64(i % 8)),
			storage.NewInt(int64(i % 50)), storage.NewTime(int64(3600 + 60*i)),
			storage.NewDate(19000),
		}
		if _, err := db.InsertRow(workload.TableWiFi, row); err != nil {
			t.Fatal(err)
		}
	}
	keep := &policy.Policy{Owner: 3, Querier: querier, Purpose: policy.AnyPurpose,
		Relation: workload.TableWiFi, Action: policy.Allow}
	if err := m.AddPolicy(keep); err != nil {
		t.Fatal(err)
	}
	gone := &policy.Policy{Owner: 5, Querier: querier, Purpose: policy.AnyPurpose,
		Relation: workload.TableWiFi, Action: policy.Allow}
	if err := m.AddPolicy(gone); err != nil {
		t.Fatal(err)
	}
	if err := m.RevokePolicy(gone.ID); err != nil {
		t.Fatal(err)
	}
	return gone.ID
}

// TestRecoveredStoreDifferentialOracle boots the full durable stack,
// warms the guard cache (in process: it is no part of what is logged or
// recovered), applies a mutation suffix, closes without a checkpoint, and
// recovers. Through the corpus harness, the recovered middleware —
// replayed state — must answer the whole query corpus exactly like a
// never-crashed mirror.
func TestRecoveredStoreDifferentialOracle(t *testing.T) {
	dir := t.TempDir()
	c, store, ps, mw := buildEquivEnv(t)
	queriers := workload.TopQueriers(ps, 3, 1)
	if len(queriers) == 0 {
		t.Fatal("no queriers with policies in the corpus")
	}
	m, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(c.DB, mw.ProtectedRelations); err != nil {
		t.Fatal(err)
	}
	c.DB.SetWAL(m)
	store.SetDurability(m)
	mw.SetDurability(m)

	warm := mw.NewSession(policy.Metadata{Querier: queriers[0], Purpose: "analytics"})
	if _, err := warm.Execute(t.Context(), "SELECT count(*) FROM "+workload.TableWiFi); err != nil {
		t.Fatal(err)
	}
	revID := equivMutate(t, mw, c.DB, queriers[0])
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2 := engine.New(engine.MySQL())
	db2.UDFOverheadIters = 0
	rec, err := m2.Recover(db2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed == 0 {
		t.Fatal("nothing replayed; the mutation suffix was checkpointed away")
	}
	for _, p := range rec.Store.All() {
		if p.ID == revID {
			t.Fatalf("revoked policy %d resurrected by recovery", revID)
		}
	}
	campusR := workload.RehydrateCampus(workload.TestCampusConfig(), db2)
	mwR, err := core.New(rec.Store, core.WithGroups(campusR.Groups()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Protected) == 0 {
		t.Fatal("recovery lost the protected-relation set")
	}
	for _, rel := range rec.Protected {
		if err := mwR.Protect(rel); err != nil {
			t.Fatal(err)
		}
	}
	if !mwR.Protected(workload.TableWiFi) {
		t.Fatalf("recovered perimeter %v does not cover %s", rec.Protected, workload.TableWiFi)
	}

	// The never-crashed mirror.
	cB, _, _, mwB := buildEquivEnv(t)
	if revB := equivMutate(t, mwB, cB.DB, queriers[0]); revB != revID {
		t.Fatalf("mirror diverged before the comparison: revoked id %d vs %d", revB, revID)
	}

	var queries []loadgen.Query
	for _, q := range cB.CorpusQueries() {
		queries = append(queries, loadgen.Query{Name: q.Name, SQL: q.SQL})
	}
	queries = append(queries,
		loadgen.Query{Name: "probe_disjunction", SQL: fmt.Sprintf(
			"SELECT * FROM %s WHERE owner IN (1, 3, 5) OR (wifiAP BETWEEN 2 AND 5 AND owner = 7)", workload.TableWiFi)},
		loadgen.Query{Name: "probe_agg", SQL: fmt.Sprintf(
			"SELECT count(*), min(owner), max(wifiAP) FROM %s WHERE wifiAP = 3 OR owner = 11", workload.TableWiFi)},
		loadgen.Query{Name: "probe_group", SQL: fmt.Sprintf(
			"SELECT owner, count(*) AS n FROM %s GROUP BY owner ORDER BY n DESC, owner LIMIT 10", workload.TableWiFi)},
		loadgen.Query{Name: "probe_replayed_rows", SQL: fmt.Sprintf(
			"SELECT id, owner FROM %s WHERE id >= 900000 ORDER BY id", workload.TableWiFi)},
	)
	recovered := loadgen.SessionQuery(mwR)
	recovered.Name = "recovered Session.Query"
	if err := loadgen.Replay(t.Context(), "analytics", queriers, queries, loadgen.SessionQuery(mwB), recovered); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredStoreSignatureCardinality replays a group-granted policy
// corpus — including one pre-crash revocation — and checks the
// signature cache built over the recovered store: one claim per querier,
// one guard state and one cached plan per profile, and the revoked grant
// both absent from the store and invisible in what its group sees.
func TestRecoveredStoreSignatureCardinality(t *testing.T) {
	const nGroups, perGroup, grantsPerGroup = 4, 10, 3
	dir := t.TempDir()
	db, store, m := startFresh(t, dir, wal.Options{Sync: wal.SyncNever, CheckpointEvery: -1})
	_ = db

	groups := policy.StaticGroups{}
	var queriers []string
	var grp0Revoked int64
	for g := 0; g < nGroups; g++ {
		gname := fmt.Sprintf("grp%d", g)
		for i := 0; i < perGroup; i++ {
			q := fmt.Sprintf("member%d_%d", g, i)
			groups[q] = []string{gname}
			queriers = append(queriers, q)
		}
		// One grant per seed owner (rows are owned by 0..2), all logged
		// post-Start so every one of them replays.
		for o := 0; o < grantsPerGroup; o++ {
			p := &policy.Policy{Owner: int64(o), Querier: gname,
				Purpose: policy.AnyPurpose, Relation: testTable, Action: policy.Allow}
			if err := store.Insert(p); err != nil {
				t.Fatal(err)
			}
			if g == 0 && o == 0 {
				grp0Revoked = p.ID
			}
		}
	}
	if _, err := store.Revoke(grp0Revoked); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2 := engine.New(engine.MySQL())
	rec, err := m2.Recover(db2)
	if err != nil {
		t.Fatal(err)
	}
	if want := nGroups*grantsPerGroup + 1; rec.Replayed < want {
		t.Fatalf("replayed %d records, want at least the %d policy ops", rec.Replayed, want)
	}
	for _, p := range rec.Store.All() {
		if p.ID == grp0Revoked {
			t.Fatalf("revoked policy %d resurrected by recovery", grp0Revoked)
		}
	}

	mw, err := core.New(rec.Store, core.WithGroups(groups))
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.Protect(testTable); err != nil {
		t.Fatal(err)
	}
	st, err := mw.Prepare("SELECT * FROM " + testTable)
	if err != nil {
		t.Fatal(err)
	}
	rowsSeen := map[string]int{}
	for _, q := range queriers {
		res, err := st.Execute(context.Background(), mw.NewSession(policy.Metadata{Querier: q, Purpose: "analytics"}))
		if err != nil {
			t.Fatalf("querier %s: %v", q, err)
		}
		rowsSeen[groups[q][0]] = len(res.Rows)
	}
	cs := mw.CacheStats()
	if cs.Claims != int64(len(queriers)) {
		t.Errorf("claims = %d, want one per querier (%d)", cs.Claims, len(queriers))
	}
	if cs.GuardStates != nGroups {
		t.Errorf("guard states = %d, want one per profile (%d)", cs.GuardStates, nGroups)
	}
	if got := st.CachedPlans(); got != nGroups {
		t.Errorf("cached plans = %d, want one per profile (%d)", got, nGroups)
	}
	// The seed table owns rows 0..9 as owner = id%3: owner 0 holds four
	// rows, so grp0 — its owner-0 grant revoked pre-crash — must see
	// exactly four fewer rows than the untouched profiles.
	if rowsSeen["grp1"] != 10 || rowsSeen["grp0"] != 6 {
		t.Errorf("recovered visibility: grp0 sees %d rows (want 6), grp1 sees %d (want 10)",
			rowsSeen["grp0"], rowsSeen["grp1"])
	}
}
