package storage

import (
	"fmt"
	"strconv"
	"strings"
)

// dateEpochYear anchors DATE values: day 0 is 2000-01-01, matching the
// generated datasets (three months of WiFi logs land in small positive
// integers, keeping histograms readable in experiment output).
const dateEpochYear = 2000

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

var daysInMonth = [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// maxDateYear is the last year a civil date may name: FormatDate prints
// four digits, and the conversions stay far from overflow.
const maxDateYear = 9999

// civilDays numbers a proleptic Gregorian date in constant time (the
// days-from-civil algorithm): years are counted from March, so a leap day
// ends its year, in 400-year eras of 146097 days. Day 0 is 0000-03-01.
func civilDays(year, month, day int64) int64 {
	if month <= 2 {
		year--
	}
	era := floorDiv(year, 400)
	yoe := year - era*400
	doy := (153*((month+9)%12)+2)/5 + day - 1
	return era*146097 + yoe*365 + yoe/4 - yoe/100 + doy
}

// epochDays is civilDays of day 0 of a DATE value.
var epochDays = civilDays(dateEpochYear, 1, 1)

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// DateFromYMD converts a civil date of year 0000–9999 to days since
// 2000-01-01.
func DateFromYMD(year, month, day int) (Value, error) {
	if year < 0 || year > maxDateYear {
		return Null, fmt.Errorf("storage: year %d out of range", year)
	}
	if month < 1 || month > 12 {
		return Null, fmt.Errorf("storage: month %d out of range", month)
	}
	dim := daysInMonth[month-1]
	if month == 2 && isLeap(year) {
		dim = 29
	}
	if day < 1 || day > dim {
		return Null, fmt.Errorf("storage: day %d out of range for %d-%02d", day, year, month)
	}
	return NewDate(civilDays(int64(year), int64(month), int64(day)) - epochDays), nil
}

// ParseDate parses "YYYY-MM-DD" into a DATE value.
func ParseDate(s string) (Value, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return Null, fmt.Errorf("storage: invalid date %q", s)
	}
	nums := make([]int, 3)
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return Null, fmt.Errorf("storage: invalid date %q", s)
		}
		nums[i] = n
	}
	return DateFromYMD(nums[0], nums[1], nums[2])
}

// MustDate is ParseDate that panics; for literals in tests and generators.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// FormatDate renders a DATE value as YYYY-MM-DD, in constant time: the
// inverse of civilDays.
func FormatDate(v Value) string {
	z := v.I + epochDays
	era := floorDiv(z, 146097)
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (yoe*365 + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day := doy - (153*mp+2)/5 + 1
	month := (mp+2)%12 + 1
	year := era*400 + yoe
	if month <= 2 {
		year++
	}
	return fmt.Sprintf("%04d-%02d-%02d", year, month, day)
}
