package engine

import "github.com/sieve-db/sieve/internal/storage"

// memberSet is the right-hand side of one IN as both evaluators probe it,
// built once and probed per row: by the vector compiler for inConst, by the
// executor for a literal list and for an uncorrelated subquery's result.
//
// When every non-NULL member carries an integer payload (INT, TIME, DATE,
// BOOL — storage.Compare orders these on I alone) the members are hashed
// on I; when every one is a string, on S. Every other mix, any FLOAT member
// among them, keeps the linear storage.Equal loop, and so does a probe of a
// kind the hash is not keyed on (a FLOAT probe against integer members):
// INT-to-FLOAT equality is a float comparison, which no integer key
// reproduces near ±2^53. There is no size below which the loop is kept:
// BenchmarkInMembership has the hash ahead already at three integer
// members (docs/benchmarks.md, "IN and expression subqueries"). An
// immutable set is safe to probe from any goroutine.
type memberSet struct {
	members []storage.Value // every member, NULLs included, in list order
	ints    map[int64]struct{}
	strs    map[string]struct{}
	hasNull bool
}

// newMemberSet builds the set of members, hashed when their kinds allow.
func newMemberSet(members []storage.Value) *memberSet {
	s := &memberSet{members: members}
	ints, strs, n := true, true, 0
	for _, m := range members {
		if m.IsNull() {
			s.hasNull = true
			continue
		}
		n++
		ints = ints && intPayload(m.K)
		strs = strs && m.K == storage.KindString
	}
	switch {
	case ints:
		s.ints = make(map[int64]struct{}, n)
	case strs:
		s.strs = make(map[string]struct{}, n)
	}
	for _, m := range members {
		switch {
		case m.IsNull():
		case s.ints != nil:
			s.ints[m.I] = struct{}{}
		case s.strs != nil:
			s.strs[m.S] = struct{}{}
		}
	}
	return s
}

// has is `v IN (members)` under SQL's rules: TRUE on a hit; otherwise NULL
// when the probe or some member is NULL, FALSE when neither is — except
// that nothing is IN an empty set, a NULL probe included.
func (s *memberSet) has(v storage.Value) tri {
	hit := false
	switch {
	case s.ints != nil && intPayload(v.K):
		_, hit = s.ints[v.I]
	case s.strs != nil && v.K == storage.KindString:
		_, hit = s.strs[v.S]
	default:
		return inList(v, s.members)
	}
	switch {
	case hit:
		return triTrue
	case s.hasNull:
		return triNull
	}
	return triFalse
}

// inList is `v IN (members)` by the linear loop, stopping at the first hit.
func inList(v storage.Value, members []storage.Value) tri {
	if v.IsNull() {
		if len(members) == 0 {
			return triFalse
		}
		return triNull
	}
	t := triFalse
	for i := range members {
		switch m := &members[i]; {
		case m.IsNull():
			t = triNull
		case storage.Equal(v, *m):
			return triTrue
		}
	}
	return t
}
