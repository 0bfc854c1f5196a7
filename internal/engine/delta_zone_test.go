package engine

import (
	"reflect"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// TestDeltaUDFArmRowEvalParity runs a Δ-style arm — d_check(setID, owner)
// is TRUE iff owner belongs to the set's closed owner list, the implication
// SIEVE's sieve_delta guarantees — beside a sargable arm through the
// compiled filter and the rowPasses reference: same rows, same pruning.
// The call is opaque to the planner, so only the sargable arm's zones
// decide which segments are read.
func TestDeltaUDFArmRowEvalParity(t *testing.T) {
	db, _, _ := vecTestDB(t)
	sets := map[int64][]int64{
		1: {5, 7}, // present in no segment
		2: {11},   // present in the {1,11} segments only
	}
	db.RegisterUDF("d_check", func(_ *UDFContext, args []storage.Value) (storage.Value, error) {
		if len(args) != 2 {
			return storage.Null, nil
		}
		for _, id := range sets[args[0].I] {
			if args[1].K == storage.KindInt && args[1].I == id {
				return storage.NewBool(true), nil
			}
		}
		return storage.NewBool(false), nil
	})
	for _, q := range []string{
		"SELECT * FROM t WHERE d_check(2, owner) = TRUE OR x < 3",
		"SELECT * FROM t WHERE (owner = 11 AND d_check(2, owner) = TRUE) OR (owner = 5 AND d_check(1, owner) = TRUE)",
	} {
		res, c := runCounted(t, db, q)
		ref, refC := runReference(t, db, q)
		if len(res.Rows) == 0 || !reflect.DeepEqual(res.Rows, ref.Rows) {
			t.Fatalf("%s: vectorised %d rows vs row-eval %d rows", q, len(res.Rows), len(ref.Rows))
		}
		if c.SegmentsPruned != refC.SegmentsPruned || c.UDFInvocations != refC.UDFInvocations {
			t.Fatalf("%s: work diverged: pruned %d vs %d, udf %d vs %d", q, c.SegmentsPruned, refC.SegmentsPruned, c.UDFInvocations, refC.UDFInvocations)
		}
	}
}
