package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder is the percentile ladder the tail rule walks, highest first,
// in tenths of a percent so the sample arithmetic stays in integers.
var tailLadder = []int{999, 995, 990, 980, 950, 900, 750, 500}

// tail is a reported tail latency: the value, which percentile it is and
// how many samples it was drawn from.
type tail struct {
	Value      float64
	Percentile float64
	Samples    int
}

// tailPercentile applies the reporting rule for tails: the highest
// percentile of the ladder that still has at least ten samples beyond it.
// With fewer than twenty samples not even the median qualifies and the
// maximum is reported as percentile 100 so the caller can see the rule
// did not hold.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	for _, p := range tailLadder {
		if n*(1000-p)/1000 >= 10 {
			return tail{Value: percentile(xs, float64(p)/10), Percentile: float64(p) / 10, Samples: n}
		}
	}
	return tail{Value: percentile(xs, 100), Percentile: 100, Samples: n}
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver of BENCHMARK.json computes spreads with. xs needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based position
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// relSpread is the run-to-run spread -compare holds against a metric's
// bound: the distance between the quartiles of xs as a share of their
// median. 0 for fewer than two values.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
