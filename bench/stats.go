package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLevels are the percentiles a latency tail may be reported at,
// highest first.
var tailLevels = []int{99, 95, 90, 75}

// tailLevel is the percentile rule of the choosing-metrics guide: the
// highest percentile, no higher than want, that still has at least ten
// samples beyond it. With too few samples for any of them it is the
// median, and the caller says so.
func tailLevel(n int, want float64) float64 {
	for _, pct := range tailLevels {
		if p := float64(pct) / 100; p <= want && n*(100-pct) >= 10*100 {
			return p
		}
	}
	return 0.5
}

// tail returns the latency tail of xs at the level tailLevel allows, and
// that level.
func tail(xs []float64, want float64) (value, level float64) {
	level = tailLevel(len(xs), want)
	return quantile(xs, level), level
}

// spread is the interquartile range of xs as a share of its median, with
// the quartiles of Python's statistics.quantiles(xs, n=4) (the exclusive
// method): the figure the driver compares against each metric's bound.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile cut, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}
