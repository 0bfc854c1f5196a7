package storage

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDateFromYMDKnownValues(t *testing.T) {
	cases := []struct {
		y, m, d int
		days    int64
	}{
		{2000, 1, 1, 0},
		{2000, 1, 31, 30},
		{2000, 2, 29, 59}, // 2000 is a leap year
		{2000, 3, 1, 60},
		{2001, 1, 1, 366},
		{2004, 3, 1, 1521},  // across the 2004 leap day
		{1999, 12, 31, -1},  // before the epoch
		{2019, 9, 25, 7207}, // the paper's query window start
	}
	for _, c := range cases {
		v, err := DateFromYMD(c.y, c.m, c.d)
		if err != nil {
			t.Fatalf("%04d-%02d-%02d: %v", c.y, c.m, c.d, err)
		}
		if v.I != c.days {
			t.Errorf("%04d-%02d-%02d = %d days, want %d", c.y, c.m, c.d, v.I, c.days)
		}
	}
}

func TestDateValidation(t *testing.T) {
	bad := [][3]int{
		{2001, 2, 29}, // not a leap year
		{2000, 13, 1},
		{2000, 0, 1},
		{2000, 4, 31},
		{2000, 1, 0},
	}
	for _, b := range bad {
		if _, err := DateFromYMD(b[0], b[1], b[2]); err == nil {
			t.Errorf("%v accepted", b)
		}
	}
	if _, err := ParseDate("2000/01/01"); err == nil {
		t.Error("wrong separator accepted")
	}
	if _, err := ParseDate("2000-01"); err == nil {
		t.Error("short date accepted")
	}
	if _, err := ParseDate("y-m-d"); err == nil {
		t.Error("non-numeric date accepted")
	}
	// Years past four digits are refused, at once however large: a DATE
	// literal costs constant time.
	for _, s := range []string{"10000-01-01", "20999999990-1-1", "9223372036854775807-1-1"} {
		t0 := time.Now()
		if _, err := ParseDate(s); err == nil {
			t.Errorf("%s accepted", s)
		}
		if d := time.Since(t0); d > 10*time.Millisecond {
			t.Errorf("%s refused only after %v", s, d)
		}
	}
}

// Property: DateFromYMD and FormatDate agree with the time package on
// every day of years 0000–9999.
func TestDateMatchesTimePackage(t *testing.T) {
	lo := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)
	hi := time.Date(maxDateYear, 12, 31, 0, 0, 0, 0, time.UTC)
	span := (hi.Unix() - lo.Unix()) / 86400
	f := func(n uint32) bool {
		day := lo.AddDate(0, 0, int(int64(n)%(span+1)))
		v, err := DateFromYMD(day.Year(), int(day.Month()), day.Day())
		if err != nil {
			t.Logf("%s: %v", day.Format("2006-01-02"), err)
			return false
		}
		if want := (day.Unix() - dateEpoch.Unix()) / 86400; v.I != want {
			t.Logf("%s = day %d, want %d", day.Format("2006-01-02"), v.I, want)
			return false
		}
		if got, want := FormatDate(v), day.Format("2006-01-02"); got != want {
			t.Logf("day %d formats %s, want %s", v.I, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestMustDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDate on bad input must panic")
		}
	}()
	MustDate("bogus")
}

// Property: FormatDate is the left inverse of ParseDate over a wide range
// of day offsets (including negative ones).
func TestDateRoundTripProperty(t *testing.T) {
	f := func(days int16) bool {
		v := NewDate(int64(days))
		s := FormatDate(v)
		back, err := ParseDate(s)
		if err != nil {
			return false
		}
		return back.I == v.I
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: consecutive days format to distinct, lexicographically
// increasing strings within a year window (ISO format sortability).
func TestDateFormatMonotoneProperty(t *testing.T) {
	f := func(start uint8) bool {
		a := FormatDate(NewDate(int64(start)))
		b := FormatDate(NewDate(int64(start) + 1))
		return a < b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
