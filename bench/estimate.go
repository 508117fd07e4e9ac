package main

import (
	"fmt"
	"sort"
	"time"
)

// sumOfMins is the noise-filtered estimator every timing here goes
// through: reps[r][k] is what segment k cost in repetition r, and the
// estimate is Σ_k min_r reps[r][k]. Each piece of work gets one chance
// per repetition at a quiet machine, and the pieces add up to the whole
// job. Every repetition must have the same number of segments.
func sumOfMins(reps [][]time.Duration) (time.Duration, error) {
	if len(reps) == 0 || len(reps[0]) == 0 {
		return 0, fmt.Errorf("estimator: no samples")
	}
	var total time.Duration
	for k := range reps[0] {
		best := reps[0][k]
		for r, rep := range reps {
			if len(rep) != len(reps[0]) {
				return 0, fmt.Errorf("estimator: repetition %d has %d segments, repetition 0 has %d",
					r, len(rep), len(reps[0]))
			}
			best = min(best, rep[k])
		}
		total += best
	}
	return total, nil
}

// median returns the middle value (the mean of the middle two for an
// even count). xs must not be empty; it is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a spread
// computed here is the spread the acceptance rule computes. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // the i-th of the three cut points, 1-based
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
