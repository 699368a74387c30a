package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does,
// because that is what the driver computes over a set of runs: -compare
// and the README's spread tables then agree with it to the last digit.
// Fewer than two values have no spread: all three cuts are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), median(s), cut(3)
}

// median of xs (0 for none); xs need not be sorted.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cv is the coefficient of variation (sample standard deviation over the
// mean), 0 when undefined.
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(mean)
}

// stat is one metric of one workload: the median over the run's reps
// with the spread and the counts behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	CV    float64 `json:"cv"`
	Reps  int     `json:"reps"`
	// Samples is the smallest per-rep sample count behind a percentile
	// metric (0 for metrics that are not percentiles).
	Samples int64 `json:"samples,omitempty"`
}

// summarize folds per-rep values into a stat.
func summarize(unit string, xs []float64, samples int64) stat {
	q1, q2, q3 := quartiles(xs)
	return stat{Value: q2, Unit: unit, Q1: q1, Q3: q3, CV: cv(xs), Reps: len(xs), Samples: samples}
}

// spread is the driver's steadiness measure: the interquartile distance
// as a share of the median.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}
