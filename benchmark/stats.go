package main

import "sort"

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sorted(v), 50) }

// percentile reads the p-th percentile of an ascending slice, interpolating
// between the two nearest ranks so the value moves smoothly with the sample.
func percentile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return asc[n-1]
	}
	frac := pos - float64(lo)
	return asc[lo]*(1-frac) + asc[lo+1]*frac
}

// supported reports whether n samples leave at least ten beyond the p-th
// percentile — the rule for printing a percentile at all.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// gives them (the exclusive method), which is what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	data := sorted(v)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}
