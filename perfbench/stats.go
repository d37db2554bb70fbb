package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1])
// and how many samples lie beyond it. A tail percentile is only worth
// reporting with at least ten samples beyond it.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s) - 1 - idx
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// ratio is a/b, 0 when b is 0 (no attempts means no outcome to rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unionNS returns the total length of the union of [lo, hi) intervals.
func unionNS(iv [][2]int64) int64 {
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total, end int64
	started := false
	for _, v := range s {
		switch {
		case !started || v[0] >= end:
			total += v[1] - v[0]
			end = v[1]
			started = true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
