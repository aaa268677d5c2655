// Package mathx provides the scalar mathematical helpers used across the
// reproduction: the paper's piecewise logarithm plog, numerically stable
// running statistics, simple confidence intervals for Monte-Carlo failure
// probabilities, a clamp and the least-squares fits.
package mathx

import "math"

// Plog is the piecewise logarithm of Lemma 6.6 in the paper:
//
//	plog(x) = log(e·x)  if x ≥ 1
//	plog(x) = x         if x ≤ 1
//
// It is continuous and 1-Lipschitz, which is what makes the rate
// supermartingale of Lemma 6.6 H-Lipschitz.
func Plog(x float64) float64 {
	if x >= 1 {
		return math.Log(math.E * x)
	}
	return x
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Welford accumulates a running mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates observation x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Merge folds another accumulator into w (Chan et al.'s parallel
// combination), as if w had seen every observation of both. The sweep
// engine uses it to collapse per-point replicate statistics into marginal
// rows (e.g. all cells sharing one τ) without revisiting raw samples.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// WilsonInterval returns a (lo, hi) Wilson score interval for a binomial
// proportion with k successes out of n trials at confidence level given by
// z (e.g. z = 1.96 for 95%). It is well behaved at k = 0 and k = n, which
// matters for estimating small failure probabilities.
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo = Clamp(center-half, 0, 1)
	hi = Clamp(center+half, 0, 1)
	return lo, hi
}

// LinearFit fits y ≈ a + b·x by ordinary least squares and returns (a, b,
// r²). Used by the experiments to measure the empirical scaling exponents
// (e.g. slowdown vs τmax on log-log axes). If fewer than two distinct x
// values are provided, it returns b = 0 and r² = 0.
func LinearFit(xs, ys []float64) (a, b, r2 float64) {
	n := len(xs)
	if n == 0 || len(ys) != n {
		return 0, 0, 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return my, 0, 0
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2
}

// PowerFit fits y ≈ C·x^p by log-log least squares and returns (C, p, r²).
// Non-positive samples are skipped.
func PowerFit(xs, ys []float64) (c, p, r2 float64) {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	a, b, r := LinearFit(lx, ly)
	return math.Exp(a), b, r
}
