package main

import (
	"math"
	"testing"
	"time"
)

func TestSumOfMins(t *testing.T) {
	ms := time.Millisecond
	// Three repetitions of four segments; a slow spell hits a different
	// segment in each repetition, and the estimate sees through all three.
	reps := [][]time.Duration{
		{10 * ms, 90 * ms, 30 * ms, 40 * ms},
		{11 * ms, 20 * ms, 95 * ms, 41 * ms},
		{50 * ms, 21 * ms, 31 * ms, 39 * ms},
	}
	got, err := sumOfMins(reps)
	if err != nil {
		t.Fatal(err)
	}
	if want := (10 + 20 + 30 + 39) * ms; got != want {
		t.Errorf("sumOfMins = %v, want %v", got, want)
	}
	// One repetition is its own sum.
	if got, _ := sumOfMins(reps[:1]); got != 170*ms {
		t.Errorf("single repetition: %v, want 170ms", got)
	}
	if _, err := sumOfMins([][]time.Duration{{ms, ms}, {ms}}); err == nil {
		t.Error("repetitions of different lengths: no error")
	}
	if _, err := sumOfMins(nil); err == nil {
		t.Error("no repetitions: no error")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("input modified: %v", c.xs)
			}
		}
	}
	if got, want := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
