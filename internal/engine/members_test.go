package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// linearIn is the reference memberSet is held to, written out here rather
// than shared with the engine: both evaluators probe memberSet, so the
// vector oracle cannot tell a wrong set from a right one. It is the row
// evaluator's fold before sets existed — storage.Equal against every
// member, NULL when nothing matched and a member was NULL — with SQL's
// empty-set rule for a NULL probe.
func linearIn(v storage.Value, members []storage.Value) tri {
	if v.IsNull() {
		if len(members) == 0 {
			return triFalse
		}
		return triNull
	}
	found, sawNull := false, false
	for _, m := range members {
		if m.IsNull() {
			sawNull = true
		} else if storage.Equal(v, m) {
			found = true
		}
	}
	switch {
	case found:
		return triTrue
	case sawNull:
		return triNull
	}
	return triFalse
}

// checkMemberSet fails t if the set built from members disagrees with
// linearIn on probe, for IN and NOT IN.
func checkMemberSet(t *testing.T, members []storage.Value, probe storage.Value) {
	t.Helper()
	set := newMemberSet(members)
	want := linearIn(probe, members)
	if got := set.has(probe); got != want {
		t.Fatalf("%s IN %s: set says %v, linear fold %v (hashed ints %v, strings %v)",
			raw(probe), raw(members...), got, want, set.ints != nil, set.strs != nil)
	}
	if got := triNot(set.has(probe)); got != triNot(want) {
		t.Fatalf("%s NOT IN %s: set says %v, linear fold %v", raw(probe), raw(members...), got, triNot(want))
	}
}

// raw prints values as kind and payload: Value.String renders a DATE by
// counting years, which takes forever at the fuzzer's payloads.
func raw(vals ...storage.Value) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "(%s %d %g %q)", v.K, v.I, v.F, v.S)
	}
	return b.String()
}

// edgeInts are integer payloads where INT and FLOAT part ways: around
// ±2^53, float64 stops telling neighbouring integers apart.
var edgeInts = []int64{0, 1, -1, 2, 7, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53), -(1 << 53) - 1,
	math.MaxInt64, math.MinInt64, 86399}

func randValue(r *rand.Rand, kinds []storage.Kind) storage.Value {
	i := edgeInts[r.Intn(len(edgeInts))]
	if r.Intn(2) == 0 {
		i = int64(r.Intn(9)) - 2
	}
	switch kinds[r.Intn(len(kinds))] {
	case storage.KindNull:
		return storage.Null
	case storage.KindInt:
		return storage.NewInt(i)
	case storage.KindTime:
		return storage.NewTime(i)
	case storage.KindDate:
		return storage.NewDate(i)
	case storage.KindBool:
		return storage.NewBool(i&1 == 1)
	case storage.KindFloat:
		switch r.Intn(4) {
		case 0:
			return storage.NewFloat(float64(i))
		case 1:
			return storage.NewFloat(float64(i) + 0.5)
		case 2:
			return storage.NewFloat(math.Nextafter(float64(i), math.Inf(1)))
		}
		return storage.NewFloat(math.NaN())
	default:
		return storage.NewString([]string{"", "a", "b", "1", "é", "a "}[r.Intn(6)])
	}
}

// TestMemberSetMatchesLinearEqual holds memberSet to the linear fold over
// random lists of every shape it distinguishes — integer payloads only
// (hashed on I), strings only (hashed on S), mixes with FLOAT or across
// families (the loop) — each with and without NULL members, probed with
// every kind, NULL included.
func TestMemberSetMatchesLinearEqual(t *testing.T) {
	intKinds := []storage.Kind{storage.KindInt, storage.KindTime, storage.KindDate, storage.KindBool}
	shapes := []struct {
		name   string
		kinds  []storage.Kind
		hashed func(*memberSet) bool
	}{
		{"ints", intKinds, func(s *memberSet) bool { return s.ints != nil }},
		{"strings", []storage.Kind{storage.KindString}, func(s *memberSet) bool { return s.strs != nil }},
		{"int_float", append([]storage.Kind{storage.KindFloat}, intKinds...), nil},
		{"floats", []storage.Kind{storage.KindFloat}, nil},
		{"everything", append([]storage.Kind{storage.KindFloat, storage.KindString}, intKinds...), nil},
	}
	probeKinds := append([]storage.Kind{storage.KindNull, storage.KindFloat, storage.KindString}, intKinds...)
	r := rand.New(rand.NewSource(1))
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			sawHashed := false
			for trial := 0; trial < 3000; trial++ {
				kinds := shape.kinds
				if trial%3 == 0 {
					kinds = append([]storage.Kind{storage.KindNull}, kinds...)
				}
				members := make([]storage.Value, r.Intn(10))
				for i := range members {
					members[i] = randValue(r, kinds)
				}
				if shape.hashed != nil && shape.hashed(newMemberSet(members)) {
					sawHashed = true
				}
				for p := 0; p < 8; p++ {
					checkMemberSet(t, members, randValue(r, probeKinds))
				}
				for _, m := range members { // every member is a hit, or NULL
					checkMemberSet(t, members, m)
				}
			}
			if shape.hashed != nil && !sawHashed {
				t.Fatal("no list of this shape was hashed; the test no longer covers the hash")
			}
		})
	}
}

// decodeValues reads 9-byte values — a kind selector, then a little-endian
// payload — from data.
func decodeValues(data []byte) []storage.Value {
	var out []storage.Value
	for ; len(data) >= 9; data = data[9:] {
		p := binary.LittleEndian.Uint64(data[1:9])
		switch data[0] % 7 {
		case 0:
			out = append(out, storage.Null)
		case 1:
			out = append(out, storage.NewInt(int64(p)))
		case 2:
			out = append(out, storage.NewTime(int64(p)))
		case 3:
			out = append(out, storage.NewDate(int64(p)))
		case 4:
			out = append(out, storage.NewBool(p&1 == 1))
		case 5:
			out = append(out, storage.NewFloat(math.Float64frombits(p)))
		default:
			out = append(out, storage.NewString(string(data[1:1+p%9])))
		}
	}
	return out
}

// FuzzMemberSet: the first value decoded is the probe, the rest the list.
// The seeds put INT and FLOAT on both sides of 2^53 and mix the kinds.
func FuzzMemberSet(f *testing.F) {
	enc := func(vals ...[2]uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = append(b, byte(v[0]))
			b = binary.LittleEndian.AppendUint64(b, v[1])
		}
		return b
	}
	two53 := uint64(1) << 53
	f.Add(enc([2]uint64{1, 3}, [2]uint64{1, 1}, [2]uint64{1, 3}, [2]uint64{0, 0}))
	f.Add(enc([2]uint64{5, math.Float64bits(float64(two53))}, [2]uint64{1, two53 + 1}, [2]uint64{1, 7}, [2]uint64{1, 9}))
	f.Add(enc([2]uint64{1, two53 + 1}, [2]uint64{5, math.Float64bits(float64(two53))}, [2]uint64{1, 2}))
	f.Add(enc([2]uint64{2, 3600}, [2]uint64{1, 3600}, [2]uint64{3, 3600}, [2]uint64{4, 1}))
	f.Add(enc([2]uint64{6, 2}, [2]uint64{6, 2}, [2]uint64{6, 5}, [2]uint64{1, 0}))
	f.Add(enc([2]uint64{0, 0}))
	f.Add(enc([2]uint64{0, 0}, [2]uint64{0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := decodeValues(data)
		if len(vals) == 0 {
			return
		}
		checkMemberSet(t, vals[1:], vals[0])
	})
}
