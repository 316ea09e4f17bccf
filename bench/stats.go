package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples a reported percentile must leave above
// it.
const minBeyond = 10

// sorted returns the values in ascending order.
func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// values, or NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps p·n from rounding up past an exact rank.
	i := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tail returns the value at the highest quantile, at most p99, that
// leaves at least minBeyond samples above it, and that quantile: p99
// from 1000 samples on, the (n-10)-th of n below that.
func tail(sorted []float64) (v, q float64) {
	n := len(sorted)
	q = min(0.99, float64(n-minBeyond)/float64(n))
	return percentile(sorted, q), q
}

// latenciesMS returns the operations' latencies in milliseconds; a
// failed operation counts as +Inf, missing every latency limit.
func latenciesMS(out []outcome) []float64 {
	v := make([]float64, len(out))
	for i, o := range out {
		v[i] = math.Inf(1)
		if o.Err == nil {
			v[i] = ms(o.latency())
		}
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
