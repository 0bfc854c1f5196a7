package sieve_test

import (
	"strings"
	"testing"

	sieve "github.com/sieve-db/sieve"
)

// buildDemoDB assembles the paper's running example through the public API
// only: the WiFi_Dataset relation, John's and Mary's policies for
// Prof. Smith (§3.1/§3.2), and a SIEVE middleware.
func buildDemoDB(t *testing.T, d sieve.Dialect) (*sieve.Middleware, *sieve.Store) {
	t.Helper()
	db := sieve.NewDB(d)
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
		sieve.Column{Name: "wifiAP", Type: sieve.KindInt},
		sieve.Column{Name: "ts_time", Type: sieve.KindTime},
	)
	if _, err := db.CreateTable("WiFi_Dataset", schema); err != nil {
		t.Fatal(err)
	}
	rows := []sieve.Row{
		{sieve.Int(1), sieve.Int(120), sieve.Int(1200), sieve.Time("09:30")}, // John in class
		{sieve.Int(2), sieve.Int(120), sieve.Int(1200), sieve.Time("14:00")}, // John, wrong time
		{sieve.Int(3), sieve.Int(120), sieve.Int(999), sieve.Time("09:30")},  // John, wrong AP
		{sieve.Int(4), sieve.Int(145), sieve.Int(2300), sieve.Time("11:00")}, // Mary at her AP
		{sieve.Int(5), sieve.Int(777), sieve.Int(1200), sieve.Time("09:30")}, // no policy
	}
	for _, r := range rows {
		if err := db.Insert("WiFi_Dataset", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("WiFi_Dataset", "wifiAP"); err != nil {
		t.Fatal(err)
	}
	store, err := sieve.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	john := &sieve.Policy{
		Owner: 120, Querier: "Prof. Smith", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: sieve.Allow,
		Conditions: []sieve.ObjectCondition{
			sieve.RangeClosed("ts_time", sieve.Time("09:00"), sieve.Time("10:00")),
			sieve.Compare("wifiAP", sieve.Eq, sieve.Int(1200)),
		},
	}
	mary := &sieve.Policy{
		Owner: 145, Querier: "Prof. Smith", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: sieve.Allow,
		Conditions: []sieve.ObjectCondition{
			sieve.Compare("wifiAP", sieve.Eq, sieve.Int(2300)),
		},
	}
	for _, p := range []*sieve.Policy{john, mary} {
		if err := store.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	m, err := sieve.New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("WiFi_Dataset"); err != nil {
		t.Fatal(err)
	}
	return m, store
}

func TestPublicAPIPaperExample(t *testing.T) {
	for _, d := range []sieve.Dialect{sieve.MySQL(), sieve.Postgres()} {
		m, _ := buildDemoDB(t, d)
		qm := sieve.Metadata{Querier: "Prof. Smith", Purpose: "Attendance"}
		res, err := m.NewSession(qm).Execute(t.Context(), "SELECT id FROM WiFi_Dataset")
		if err != nil {
			t.Fatal(err)
		}
		// Rows 1 (John in class) and 4 (Mary at her AP) only.
		got := map[int64]bool{}
		for _, r := range res.Rows {
			got[r[0].I] = true
		}
		if len(got) != 2 || !got[1] || !got[4] {
			t.Fatalf("[%s] allowed rows = %v, want {1,4}", d.Name(), got)
		}
		// Nobody else sees anything.
		res2, err := m.NewSession(sieve.Metadata{Querier: "Mallory", Purpose: "Attendance"}).Execute(t.Context(), "SELECT id FROM WiFi_Dataset")
		if err != nil {
			t.Fatal(err)
		}
		if len(res2.Rows) != 0 {
			t.Fatalf("[%s] default deny violated", d.Name())
		}
	}
}

func TestPublicAPIRewriteInspection(t *testing.T) {
	m, _ := buildDemoDB(t, sieve.MySQL())
	qm := sieve.Metadata{Querier: "Prof. Smith", Purpose: "Attendance"}
	sqlText, rep, err := m.NewSession(qm).Rewrite("SELECT * FROM WiFi_Dataset WHERE ts_time >= TIME '09:00'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqlText, "WITH") {
		t.Errorf("rewrite missing WITH: %s", sqlText)
	}
	if len(rep.Decisions) != 1 {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if rep.Decisions[0].Policies != 2 {
		t.Errorf("policies = %d, want 2", rep.Decisions[0].Policies)
	}
	ge, ok := m.GuardedExpression(qm, "WiFi_Dataset")
	if !ok || ge.PolicyCount() != 2 {
		t.Errorf("guarded expression = %v, %v", ge, ok)
	}
}

func TestPublicAPIBaselinesAgree(t *testing.T) {
	m, _ := buildDemoDB(t, sieve.MySQL())
	qm := sieve.Metadata{Querier: "Prof. Smith", Purpose: "Attendance"}
	want, err := m.NewSession(qm).Execute(t.Context(), "SELECT id FROM WiFi_Dataset")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []sieve.BaselineKind{sieve.BaselineP, sieve.BaselineI, sieve.BaselineU} {
		got, err := m.ExecuteBaseline(t.Context(), kind, "SELECT id FROM WiFi_Dataset", qm)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Errorf("%s rows = %d, want %d", kind, len(got.Rows), len(want.Rows))
		}
	}
}

func TestPublicAPIFactorDeny(t *testing.T) {
	allow := &sieve.Policy{
		Owner: 9, Querier: "Prof. Smith", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: sieve.Allow,
	}
	deny := &sieve.Policy{
		Owner: 9, Querier: sieve.AnyQuerier, Purpose: sieve.AnyPurpose,
		Relation: "WiFi_Dataset", Action: sieve.Deny,
		Conditions: []sieve.ObjectCondition{
			sieve.Compare("wifiAP", sieve.Eq, sieve.Int(13)),
		},
	}
	out := sieve.FactorDeny([]*sieve.Policy{allow}, []*sieve.Policy{deny})
	if len(out) != 1 || len(out[0].Conditions) != 1 {
		t.Fatalf("factored = %v", out)
	}
}

func TestPublicAPIValueHelpers(t *testing.T) {
	if sieve.Int(3).I != 3 || sieve.Float(1.5).F != 1.5 || sieve.Str("x").S != "x" {
		t.Error("value constructors broken")
	}
	if !sieve.Bool(true).Bool() {
		t.Error("Bool constructor broken")
	}
	if sieve.Time("01:00").I != 3600 {
		t.Error("Time constructor broken")
	}
	if sieve.DateOf("2000-01-02").I != 1 {
		t.Error("DateOf constructor broken")
	}
	if _, err := sieve.NewSchema(sieve.Column{Name: "a", Type: sieve.KindInt}); err != nil {
		t.Error(err)
	}
}
