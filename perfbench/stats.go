package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as measured rather than extrapolated.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p (0 < p ≤
// 100) in a sorted sample of size n: the smallest rank whose cumulative
// share reaches p. The epsilon absorbs binary rounding (99.9% of 10000
// computes as 9990.000000000002, not 9990).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0 for
// an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailPercentiles are the candidates highestTail picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// highestTail returns the highest candidate percentile with at least
// minBeyond samples beyond it, or 0 when even the median has fewer.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// sample is a growable set of observations.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) p(p float64) float64 { return percentile(s.sorted(), p) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value (mean of the two middle values for an
// even count); used for the setup repetitions, where every value is a
// measurement of the same thing.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sample(vals).sorted()
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer absent from a workload
// reports zero work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
