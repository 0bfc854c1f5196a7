package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
)

// TestGuardArmsSharedAcrossRewrites: a guard state builds its arm
// expressions once and every rewrite over it — any statement, any querier
// sharing the signature — injects the same nodes. Sharing is safe only if
// nothing changes an expression in place, so each statement is rewritten
// and executed twice for two queriers of one signature, and its printed SQL
// and rows are held to those of a fresh middleware that has rewritten
// nothing else. A policy with a derived-value condition puts a subquery in
// the arms; the rewrite prepends its guarded CTEs only after its walk, so it
// never redirects a reference inside an arm, and those arms are shared too.
func TestGuardArmsSharedAcrossRewrites(t *testing.T) {
	statements := []string{
		"SELECT * FROM wifi",
		"SELECT W.id, W.owner FROM wifi AS W WHERE W.wifiAP = 101 AND W.ts_time > TIME '09:00'",
		"SELECT W.owner, count(*) FROM wifi AS W, membership AS M WHERE M.uid = W.owner GROUP BY W.owner ORDER BY W.owner",
		"SELECT id FROM wifi WHERE owner IN (SELECT W2.owner FROM wifi AS W2 WHERE W2.wifiAP = 102) ORDER BY id LIMIT 30",
	}
	for _, tc := range []struct {
		name   string
		extra  *policy.Policy
		shared bool
	}{
		{"plain arms are shared", nil, true},
		{"arms with a subquery are copied", &policy.Policy{
			Owner: 3, Querier: "grp0", Purpose: policy.AnyPurpose, Relation: "wifi", Action: policy.Allow,
			Conditions: []policy.ObjectCondition{policy.DerivedValue("wifiAP", sqlparser.CmpEq,
				"SELECT W2.wifiAP FROM wifi AS W2 WHERE W2.owner = 0 AND W2.ts_time = wifi.ts_time AND W2.ts_date = wifi.ts_date")},
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *sigFixture {
				f := newSigFixture(t, 2, 2)
				if tc.extra != nil {
					p := *tc.extra
					if err := f.m.AddPolicy(&p); err != nil {
						t.Fatal(err)
					}
				}
				return f
			}
			f := build()
			var firstArm sqlparser.Expr
			for round := 0; round < 2; round++ {
				for _, sql := range statements {
					for _, q := range []string{"member0_0", "member0_1"} {
						stmt, rep, err := f.m.RewriteQuery(sql, f.metadata(q))
						if err != nil {
							t.Fatalf("%s / %s: %v", q, sql, err)
						}
						arm := rep.GuardedCTEs[0].Arms[0].Expr
						if firstArm == nil {
							firstArm = arm
						} else if (arm == firstArm) != tc.shared {
							t.Fatalf("%s / %s: arm shared with the first rewrite: %v, want %v", q, sql, arm == firstArm, tc.shared)
						}
						got, err := f.db.QueryStmtCtx(context.Background(), stmt)
						if err != nil {
							t.Fatalf("%s / %s: %v", q, sql, err)
						}

						fresh := build()
						wantStmt, _, err := fresh.m.RewriteQuery(sql, fresh.metadata(q))
						if err != nil {
							t.Fatal(err)
						}
						if g, w := sqlparser.Print(stmt), sqlparser.Print(wantStmt); g != w {
							t.Fatalf("round %d, %s / %s: rewritten SQL drifted from a fresh middleware's:\n got: %s\nwant: %s", round, q, sql, g, w)
						}
						want, err := fresh.db.QueryStmtCtx(context.Background(), wantStmt)
						if err != nil {
							t.Fatal(err)
						}
						if len(got.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
							t.Fatalf("round %d, %s / %s: %d rows, a fresh middleware returns %d", round, q, sql, len(got.Rows), len(want.Rows))
						}
					}
				}
			}
		})
	}
}
