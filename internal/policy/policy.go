// Package policy implements SIEVE's access-control policy model (§3.1): a
// policy is ⟨object conditions, querier conditions, action⟩ where object
// conditions are a conjunction over tuple attributes (constants, ranges,
// IN-lists, or derived-value subqueries), querier conditions follow the
// purpose-based access control model (querier + purpose), and the action is
// allow (deny policies are factored into allow policies, §3.1).
//
// The package also persists policies in the two middleware relations rP and
// rOC (§5.1) inside the embedded engine, exactly as SIEVE stores them in
// MySQL/PostgreSQL.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Action is a policy's enforcement operation.
type Action string

// Actions. The enforcement semantics are default-deny (§3.1): tuples not
// covered by an allow policy are excluded, so Deny only appears transiently
// before FactorDeny folds it into the allow set.
const (
	Allow Action = "allow"
	Deny  Action = "deny"
)

// CondKind discriminates object condition shapes.
type CondKind int

// Object condition kinds.
const (
	// CondCompare is attr op constant.
	CondCompare CondKind = iota
	// CondRange is the paper's ⟨attr, op1, val1, op2, val2⟩ two-sided range.
	CondRange
	// CondIn is attr IN (constants).
	CondIn
	// CondNotIn is attr NOT IN (constants).
	CondNotIn
	// CondSubquery is attr op (SELECT ...): a derived value (§3.1) evaluated
	// per tuple, possibly correlated with the tuple's attributes.
	CondSubquery
)

// ObjectCondition is one conjunct of a policy's object conditions.
type ObjectCondition struct {
	Attr string
	Kind CondKind

	// CondCompare / CondSubquery comparison operator.
	Op sqlparser.CmpOp
	// CondCompare constant.
	Val storage.Value

	// CondRange bounds; LoOp ∈ {≥, >}, HiOp ∈ {≤, <}.
	Lo, Hi     storage.Value
	LoOp, HiOp sqlparser.CmpOp

	// CondIn / CondNotIn members.
	Vals []storage.Value

	// CondSubquery SQL text (a SELECT statement).
	Subquery string
}

// Compare builds attr op constant.
func Compare(attr string, op sqlparser.CmpOp, val storage.Value) ObjectCondition {
	return ObjectCondition{Attr: attr, Kind: CondCompare, Op: op, Val: val}
}

// RangeClosed builds lo ≤ attr ≤ hi.
func RangeClosed(attr string, lo, hi storage.Value) ObjectCondition {
	return ObjectCondition{Attr: attr, Kind: CondRange, Lo: lo, Hi: hi,
		LoOp: sqlparser.CmpGe, HiOp: sqlparser.CmpLe}
}

// In builds attr IN (vals...).
func In(attr string, vals ...storage.Value) ObjectCondition {
	return ObjectCondition{Attr: attr, Kind: CondIn, Vals: vals}
}

// NotIn builds attr NOT IN (vals...).
func NotIn(attr string, vals ...storage.Value) ObjectCondition {
	return ObjectCondition{Attr: attr, Kind: CondNotIn, Vals: vals}
}

// DerivedValue builds attr op (SELECT ...).
func DerivedValue(attr string, op sqlparser.CmpOp, selectSQL string) ObjectCondition {
	return ObjectCondition{Attr: attr, Kind: CondSubquery, Op: op, Subquery: selectSQL}
}

// String renders the condition as SQL.
func (c ObjectCondition) String() string { return sqlparser.PrintExpr(c.Expr("")) }

// Interval maps the condition to a closed value interval [lo, hi] with
// NULL meaning unbounded on that side; for CondIn it is the hull of the
// members. ok is false for shapes an interval cannot represent (NOT IN,
// inequality, derived values). Guard implication checks and zone-map
// pruning estimates both reason over this form.
func (c ObjectCondition) Interval() (lo, hi storage.Value, ok bool) {
	switch c.Kind {
	case CondCompare:
		switch c.Op {
		case sqlparser.CmpEq:
			return c.Val, c.Val, true
		case sqlparser.CmpLe, sqlparser.CmpLt:
			return storage.Null, c.Val, true
		case sqlparser.CmpGe, sqlparser.CmpGt:
			return c.Val, storage.Null, true
		}
		return storage.Null, storage.Null, false
	case CondRange:
		return c.Lo, c.Hi, true
	case CondIn:
		if len(c.Vals) == 0 {
			return storage.Null, storage.Null, false
		}
		lo, hi = c.Vals[0], c.Vals[0]
		for _, v := range c.Vals[1:] {
			if storage.Less(v, lo) {
				lo = v
			}
			if storage.Less(hi, v) {
				hi = v
			}
		}
		return lo, hi, true
	}
	return storage.Null, storage.Null, false
}

// QuerierCondition is an additional querier-context conjunct beyond the
// mandatory querier and purpose (e.g. time of day, source address).
type QuerierCondition struct {
	Attr string
	Val  string
}

// Policy is one access control policy.
type Policy struct {
	ID       int64
	Owner    int64  // the ri.owner value whose tuples this policy controls
	Querier  string // user or group the policy grants access to
	Purpose  string // Pur-BAC purpose the grant is limited to
	Relation string // associated table
	Action   Action
	// InsertedAt is a logical insertion timestamp (monotonic counter).
	InsertedAt int64

	// Conditions are the non-owner object conditions. The mandatory
	// oc_owner (§3.1) is implied by Owner and materialised by OwnerCondition
	// and Expr; keeping it implicit makes the invariant "exactly one owner
	// equality per policy" unbreakable by construction.
	Conditions []ObjectCondition

	// ExtraQuerier holds querier conditions beyond querier and purpose.
	ExtraQuerier []QuerierCondition
}

// AnyPurpose matches every query purpose when used as a policy's Purpose.
const AnyPurpose = "any"

// OwnerAttr is the attribute name of the mandatory owner column. The paper
// assumes every relation carries an indexed owner attribute (§3.1).
const OwnerAttr = "owner"

// OwnerCondition materialises the policy's implicit owner equality.
func (p *Policy) OwnerCondition() ObjectCondition {
	return Compare(OwnerAttr, sqlparser.CmpEq, storage.NewInt(p.Owner))
}

// AllConditions returns the owner condition followed by the rest; this is
// the paper's OC_l.
func (p *Policy) AllConditions() []ObjectCondition {
	out := make([]ObjectCondition, 0, len(p.Conditions)+1)
	out = append(out, p.OwnerCondition())
	out = append(out, p.Conditions...)
	return out
}

// Validate checks structural invariants.
func (p *Policy) Validate() error {
	if p.Relation == "" {
		return fmt.Errorf("policy: missing relation")
	}
	if p.Querier == "" {
		return fmt.Errorf("policy: missing querier")
	}
	if p.Purpose == "" {
		return fmt.Errorf("policy: missing purpose")
	}
	if p.Action != Allow && p.Action != Deny {
		return fmt.Errorf("policy: invalid action %q", p.Action)
	}
	for _, c := range p.Conditions {
		if c.Attr == "" {
			return fmt.Errorf("policy: condition with empty attribute")
		}
		if c.Attr == OwnerAttr {
			return fmt.Errorf("policy: explicit owner condition; Owner field implies it")
		}
		switch c.Kind {
		case CondRange:
			if c.LoOp != sqlparser.CmpGe && c.LoOp != sqlparser.CmpGt {
				return fmt.Errorf("policy: bad range lower op %v", c.LoOp)
			}
			if c.HiOp != sqlparser.CmpLe && c.HiOp != sqlparser.CmpLt {
				return fmt.Errorf("policy: bad range upper op %v", c.HiOp)
			}
		case CondIn, CondNotIn:
			if len(c.Vals) == 0 {
				return fmt.Errorf("policy: empty IN list on %s", c.Attr)
			}
		case CondSubquery:
			if _, err := sqlparser.Parse(c.Subquery); err != nil {
				return fmt.Errorf("policy: bad derived-value subquery: %w", err)
			}
		}
	}
	return nil
}

// Metadata is the query metadata QM (§3.1): the identity of the querier and
// the purpose of the query, plus any further querier context (the paper
// names the querier's IP or the time of day) matched against policies'
// ExtraQuerier conditions.
type Metadata struct {
	Querier string
	Purpose string
	Context map[string]string
}

// Groups resolves group memberships: GroupsOf returns the (transitive)
// groups a user belongs to. Groups are hierarchical in the paper's model;
// implementations return the flattened closure.
type Groups interface {
	GroupsOf(member string) []string
}

// StaticGroups is an in-memory Groups implementation.
type StaticGroups map[string][]string

// GroupsOf returns the member's groups.
func (g StaticGroups) GroupsOf(member string) []string { return g[member] }

// NoGroups is a Groups with no memberships.
var NoGroups = StaticGroups{}

// AppliesTo reports whether the policy is relevant to the query metadata
// (the P_QM filter, §3.2): purposes must match (or the policy covers any
// purpose), the querier must equal the policy's querier or belong to the
// policy's querier group, and any extra querier conditions must match the
// metadata's context.
func (p *Policy) AppliesTo(qm Metadata, groups Groups) bool {
	if !p.matchesContext(qm) {
		return false
	}
	if p.Querier == qm.Querier {
		return true
	}
	for _, g := range groups.GroupsOf(qm.Querier) {
		if p.Querier == g {
			return true
		}
	}
	return false
}

// matchesContext is AppliesTo without the querier test: the purposes match
// (or the policy covers any purpose) and every extra querier condition
// matches the metadata's context.
func (p *Policy) matchesContext(qm Metadata) bool {
	if p.Purpose != AnyPurpose && p.Purpose != qm.Purpose {
		return false
	}
	for _, qc := range p.ExtraQuerier {
		if qm.Context[qc.Attr] != qc.Val {
			return false
		}
	}
	return true
}

// Filter returns the subset of policies relevant to qm for the relation,
// i.e. P_QM^i restricted to one table.
func Filter(ps []*Policy, qm Metadata, relation string, groups Groups) []*Policy {
	var out []*Policy
	for _, p := range ps {
		if p.Relation == relation && p.Action == Allow && p.AppliesTo(qm, groups) {
			out = append(out, p)
		}
	}
	return out
}

// Sort orders policies by ID for deterministic output.
func Sort(ps []*Policy) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
}

// String renders a compact description.
func (p *Policy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %d: owner=%d querier=%s purpose=%s %s on %s",
		p.ID, p.Owner, p.Querier, p.Purpose, p.Action, p.Relation)
	for _, c := range p.Conditions {
		b.WriteString(" ∧ ")
		b.WriteString(c.String())
	}
	return b.String()
}
