package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail percentile read from fewer samples is noise.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, and
// whether at least minTail samples lie strictly beyond its rank. xs need
// not be sorted and is not modified.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank], len(s)-1-rank >= minTail
}

// tailPercentile returns the highest of the conventional percentiles
// that still has minTail samples beyond it, with its value. ok is false
// when even the median lacks that many.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if v, ok := percentile(xs, q); ok {
			return q, v, true
		}
	}
	return 0, math.NaN(), false
}

// median is the midpoint median of xs (the mean of the middle pair for
// even lengths); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of xs without the lowest and the highest
// trim share of them (at least one value stays); NaN when empty.
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := int(trim * float64(len(s)))
	if 2*cut >= len(s) {
		cut = (len(s) - 1) / 2
	}
	sum := 0.0
	for _, v := range s[cut : len(s)-cut] {
		sum += v
	}
	return sum / float64(len(s)-2*cut)
}

// selfTime is a span's duration minus the parts of it that measured
// child spans cover, floored at zero: clock reads around nested calls
// can make the children sum a hair past their parent.
func selfTime(total float64, children ...float64) float64 {
	for _, c := range children {
		total -= c
	}
	if total < 0 {
		return 0
	}
	return total
}

// ratio is num/den, or 0 when den is 0 (no attempts, no ratio).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
