package sqlparser

import (
	"fmt"

	"github.com/sieve-db/sieve/internal/storage"
)

// NumPlaceholders counts the bind parameters (`?`) in a statement,
// including those inside CTEs, set-operation arms, derived tables and
// subqueries.
func NumPlaceholders(s *SelectStmt) int {
	n := 0
	w := walker{descend: true, node: func(e Expr) {
		if _, ok := e.(*Placeholder); ok {
			n++
		}
	}}
	w.stmt(s, false)
	return n
}

// ArgCountError is BindStmt's error for a statement with want placeholders
// bound to got arguments.
func ArgCountError(want, got int) error {
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
		return nil, ArgCountError(want, len(args))
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
