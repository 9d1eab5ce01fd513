package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// lapMin reduces the laps of several repetitions to the fastest observation
// of each lap. Lap k is the same work in every repetition, and host noise
// on a shared box only ever adds time — in bursts of tens of milliseconds —
// so the minimum over repetitions, lap by lap, is the steadiest estimate
// of what the work costs. ok is false when repetitions disagree on the
// number of laps.
func lapMin(reps [][]float64) (fastest []float64, ok bool) {
	if len(reps) == 0 {
		return nil, false
	}
	fastest = append([]float64(nil), reps[0]...)
	for _, laps := range reps[1:] {
		if len(laps) != len(fastest) {
			return nil, false
		}
		for k, v := range laps {
			fastest[k] = math.Min(fastest[k], v)
		}
	}
	return fastest, true
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile reports the highest candidate percentile that still has
// at least ten samples beyond it, and its value. With fewer than twenty
// samples it falls back to the median.
func tailPercentile(xs []float64) (p, value float64) {
	n := float64(len(xs))
	for _, c := range tailCandidates {
		if n*(100-c)/100 >= 10-1e-9 { // 10000 * 0.1 / 100 is 9.999... in floating point
			return c, percentile(xs, c)
		}
	}
	return 50, percentile(xs, 50)
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method), so
// spreads printed here are the ones the acceptance driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 0 {
			return math.NaN(), math.NaN(), math.NaN()
		}
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 || math.IsNaN(q2) {
		return 0
	}
	return (q3 - q1) / q2
}
