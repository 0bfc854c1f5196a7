package sqlparser

import (
	"fmt"

	"github.com/sieve-db/sieve/internal/storage"
)

// NumPlaceholders counts the bind parameters (`?`) in a statement,
// including those inside CTEs, set-operation arms, derived tables and
// subqueries.
func NumPlaceholders(s *SelectStmt) int { return countPlaceholders(s, nil) }

// Unbound is BindStmt's error for s bound to no arguments: nil when s holds
// no placeholder. An expression for which bound reports true is taken to
// hold none and is not walked, so a caller that knows a large subtree to be
// placeholder-free does not pay for walking it.
func Unbound(s *SelectStmt, bound func(Expr) bool) error {
	if n := countPlaceholders(s, bound); n > 0 {
		return argCountError(n, 0)
	}
	return nil
}

func countPlaceholders(s *SelectStmt, bound func(Expr) bool) int {
	n := 0
	w := walker{descend: true, skip: bound, node: func(e Expr) {
		if _, ok := e.(*Placeholder); ok {
			n++
		}
	}}
	w.stmt(s, false)
	return n
}

func argCountError(want, got int) error {
	return fmt.Errorf("sql: statement has %d placeholder(s), got %d argument(s)", want, got)
}

// BindStmt resolves every placeholder in s against args (args[i] binds
// placeholder i+1) and returns the bound statement. The argument count
// must match exactly. Binding is a clone with each placeholder substituted,
// so the input — a pristine prepared AST, typically — is never mutated; a
// statement with no placeholders is returned as-is. Values pass through
// untyped: the engine coerces comparisons the same way it does for inline
// literals.
func BindStmt(s *SelectStmt, args []storage.Value) (*SelectStmt, error) {
	want := NumPlaceholders(s)
	if len(args) != want {
		return nil, argCountError(want, len(args))
	}
	if want == 0 {
		return s, nil
	}
	cl := cloner{args: args}
	out := cl.stmt(s)
	if cl.err != nil {
		return nil, cl.err
	}
	return out, nil
}
