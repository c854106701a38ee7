package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending samples: the smallest sample with at least p% of all
// samples at or below it, sorted[ceil(p·n/100)−1]. The rank is exact
// when p·n/100 is a whole number, so the median of 1..10 is 5, not 6.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps binary rounding (99.9·1000/100 = 999.0000000000001)
	// from pushing a whole rank up by one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tail returns the highest nearest-rank percentile that has at least
// tailBeyond samples beyond it, and that percentile's sample. With n
// sorted samples this is rank n−tailBeyond, at p = 100·(n−tailBeyond)/n.
// ok is false when there are too few samples for any such percentile.
func tail(sorted []float64) (p, v float64, ok bool) {
	n := len(sorted)
	rank := n - tailBeyond
	if rank < 1 {
		return 0, 0, false
	}
	return 100 * float64(rank) / float64(n), sorted[rank-1], true
}

// median returns the nearest-rank median of unsorted samples, leaving
// xs untouched.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	return percentile(s, 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
