package sqlparser

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sieve-db/sieve/internal/storage"
)

// Property: CloneStmt produces an equal but fully independent tree.
func TestCloneStmtEqualAndIndependentProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randStmt(r, 3)
		clone := CloneStmt(orig)
		if !reflect.DeepEqual(orig, clone) {
			return false
		}
		// Mutating the clone must not affect the original.
		mutateFirstColRef(clone)
		return Print(orig) != Print(clone) || !hasColRef(clone)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func mutateFirstColRef(s *SelectStmt) {
	done := false
	walkNodes(s, func(e Expr) {
		if done {
			return
		}
		if c, ok := e.(*ColRef); ok {
			c.Column = "__mutated__"
			done = true
		}
	})
}

func hasColRef(s *SelectStmt) bool {
	found := false
	walkNodes(s, func(e Expr) {
		if _, ok := e.(*ColRef); ok {
			found = true
		}
	})
	return found
}

func TestCloneNil(t *testing.T) {
	if CloneStmt(nil) != nil || CloneExpr(nil) != nil || CloneCore(nil) != nil {
		t.Fatal("nil clones must be nil")
	}
}

func TestRequalifyExpr(t *testing.T) {
	e := MustParse("SELECT * FROM t WHERE W.a = 1 AND b = 2 AND x.c = 3").Body.Where
	out := RequalifyExpr(e, "W", "wifi")
	text := PrintExpr(out)
	if text != "wifi.a = 1 AND b = 2 AND x.c = 3" {
		t.Fatalf("requalified = %q", text)
	}
	// Original untouched.
	if PrintExpr(e) != "W.a = 1 AND b = 2 AND x.c = 3" {
		t.Fatal("RequalifyExpr mutated its input")
	}
	// Unqualified rewrite.
	out2 := RequalifyExpr(e, "", "wifi")
	if PrintExpr(out2) != "W.a = 1 AND wifi.b = 2 AND x.c = 3" {
		t.Fatalf("unqualified requalify = %q", PrintExpr(out2))
	}
}

func TestRequalifyDescendsIntoSubqueries(t *testing.T) {
	e := MustParse("SELECT * FROM t WHERE a = (SELECT max(b) FROM u WHERE u.x = W.y)").Body.Where
	out := RequalifyExpr(e, "W", "wifi")
	if got := PrintExpr(out); got != "a = (SELECT max(b) FROM u WHERE u.x = wifi.y)" {
		t.Fatalf("correlated requalify = %q", got)
	}
}

func TestCloneHintIndependence(t *testing.T) {
	s := MustParse("SELECT * FROM t FORCE INDEX (a, b)")
	c := CloneStmt(s)
	c.Body.From[0].Hint.Indexes[0] = "z"
	if s.Body.From[0].Hint.Indexes[0] != "a" {
		t.Fatal("hint slice aliased between clone and original")
	}
}

func TestCloneLiteralIndependence(t *testing.T) {
	lit := Lit(storage.NewInt(1))
	e := &CompareExpr{Op: CmpEq, L: Col("", "a"), R: lit}
	c := CloneExpr(e).(*CompareExpr)
	c.R.(*Literal).Val = storage.NewInt(99)
	if lit.Val.I != 1 {
		t.Fatal("literal aliased between clone and original")
	}
}
