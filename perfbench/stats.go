package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie above a reported percentile. A
// p99 over 200 samples rests on two values; the benchmark reports the
// highest percentile that still has this many samples beyond it.
const minTail = 10

// tailQuantile returns the quantile actually reported when want is asked
// of n samples: want itself when at least minTail samples lie above it,
// otherwise the highest quantile that leaves minTail above, and never
// below the median.
func tailQuantile(want float64, n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := math.Min(want, 1-float64(minTail)/float64(n))
	return math.Max(q, 0.5)
}

// percentile is one reported percentile with its sample count.
type percentile struct {
	// Q is the quantile reported, after the tail rule.
	Q float64
	// N is the sample count.
	N int
	// Value is the sample at Q.
	Value float64
}

func (p percentile) String() string {
	return fmt.Sprintf("p%g of %d", math.Round(p.Q*1000)/10, p.N)
}

// quantileOf returns the want quantile of xs by the nearest-rank rule,
// after applying the tail rule. xs is sorted in place.
func quantileOf(xs []float64, want float64) percentile {
	q := tailQuantile(want, len(xs))
	p := percentile{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return p
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	p.Value = xs[i]
	return p
}

// spread is the five-number summary of a metric's repeats within a run.
type spread struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// summarize returns the five-number summary of xs (linear interpolation
// between order statistics). xs is not modified.
func summarize(xs []float64) spread {
	s := spread{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	at := func(q float64) float64 {
		pos := q * float64(len(ys)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(ys)-1)
		return ys[lo] + (ys[hi]-ys[lo])*(pos-float64(lo))
	}
	s.Min, s.Q1, s.Median, s.Q3, s.Max = ys[0], at(0.25), at(0.5), at(0.75), ys[len(ys)-1]
	return s
}
