// Package martingale implements the paper's analysis machinery: the rate
// supermartingale W of Lemma 6.6, the asynchrony-corrected process V from
// the proof of Theorem 6.5, the failure-probability bounds of Theorems
// 3.1, 6.3 and 6.5 / Corollary 6.7, and the Section-5 closed-form
// lower-bound quantities. It also provides an empirical supermartingale
// checker used by tests and experiments to validate the reconstruction of
// the paper's formulas (the arXiv text drops ε glyphs; see
// internal/core/rates.go).
package martingale

import (
	"errors"
	"math"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/mathx"
)

// Witness is the rate supermartingale of Lemma 6.6 for the sequential SGD
// process with constant step size α and success region of radius² ε:
//
//	W_t(x_t, …) = ε/(2αcε − α²M²) · plog(‖x_t − x*‖²/ε) + t
//
// while the algorithm has not succeeded, frozen at success. It is a
// supermartingale for sequential SGD with horizon ∞ and is H-Lipschitz in
// the current iterate with H = 2√ε/(2αcε − α²M²).
type Witness struct {
	Eps   float64
	Alpha float64
	Cst   grad.Constants
}

// ErrBadWitness indicates the step size violates 2αcε > α²M², outside
// which W is not a supermartingale.
var ErrBadWitness = errors.New("martingale: need 0 < α < 2cε/M²")

// NewWitness validates the parameters.
func NewWitness(eps, alpha float64, cst grad.Constants) (Witness, error) {
	w := Witness{Eps: eps, Alpha: alpha, Cst: cst}
	if eps <= 0 || alpha <= 0 || w.Denom() <= 0 {
		return Witness{}, ErrBadWitness
	}
	return w, nil
}

// Denom returns 2αcε − α²M², the per-step drift margin.
func (w Witness) Denom() float64 {
	return 2*w.Alpha*w.Cst.C*w.Eps - w.Alpha*w.Alpha*w.Cst.M2
}

// H returns the Lipschitz constant of W in its first coordinate.
func (w Witness) H() float64 { return 2 * math.Sqrt(w.Eps) / w.Denom() }

// Value returns W_t for an algorithm that has not succeeded through time
// t, given the current squared distance to the optimum.
func (w Witness) Value(t int, distSq float64) float64 {
	return w.Eps/w.Denom()*mathx.Plog(distSq/w.Eps) + float64(t)
}

// InitialBound returns the Lemma-6.6 bound
// E[W_0(x_0)] ≤ ε/(2αcε−α²M²)·plog(e‖x_0−x*‖²/ε).
func (w Witness) InitialBound(x0DistSq float64) float64 {
	return w.Eps / w.Denom() * mathx.Plog(math.E*x0DistSq/w.Eps)
}

// DriftTerm returns the per-step asynchrony penalty α²·H·L·M·C·√d of
// Theorem 6.5, where C = 2√(τmax·n).
func (w Witness) DriftTerm(tauMax, n, d int) float64 {
	m := math.Sqrt(w.Cst.M2)
	c := 2 * math.Sqrt(float64(tauMax)*float64(n))
	return w.Alpha * w.Alpha * w.H() * w.Cst.L * m * c * math.Sqrt(float64(d))
}

// DriftOK reports whether the Theorem-6.5 precondition
// α²HLMC√d < 1 holds.
func (w Witness) DriftOK(tauMax, n, d int) bool {
	return w.DriftTerm(tauMax, n, d) < 1
}

// BoundSequential is Theorem 3.1: with α = cεϑ/M²,
//
//	P(F_T) ≤ M²/(c²εϑT) · plog(e‖x_0−x*‖²/ε).
func BoundSequential(cst grad.Constants, eps, vartheta float64, T int, x0DistSq float64) float64 {
	return cst.M2 / (cst.C * cst.C * eps * vartheta * float64(T)) *
		mathx.Plog(math.E*x0DistSq/eps)
}

// BoundHogwild is Theorem 6.3 (the prior De Sa et al. result under the
// stochastic scheduler and single-non-zero gradients), with worst-case
// expected delay τ:
//
//	P(F_T) ≤ (M² + 2LMτ√ε)/(c²εϑT) · plog(e‖x_0−x*‖²/ε).
func BoundHogwild(cst grad.Constants, eps, vartheta, tau float64, T int, x0DistSq float64) float64 {
	m := math.Sqrt(cst.M2)
	num := cst.M2 + 2*cst.L*m*tau*math.Sqrt(eps)
	return num / (cst.C * cst.C * eps * vartheta * float64(T)) *
		mathx.Plog(math.E*x0DistSq/eps)
}

// BoundAsync is Corollary 6.7 (the paper's main upper bound) with
// C = 2√(τmax·n):
//
//	P(F_T) ≤ (M² + 4√ε·L·M·√(τmax·n)·√d)/(c²εϑT) · plog(e‖x_0−x*‖²/ε).
func BoundAsync(cst grad.Constants, eps, vartheta float64, tauMax, n, d, T int, x0DistSq float64) float64 {
	m := math.Sqrt(cst.M2)
	num := cst.M2 + 4*math.Sqrt(eps)*cst.L*m*
		math.Sqrt(float64(tauMax)*float64(n))*math.Sqrt(float64(d))
	return num / (cst.C * cst.C * eps * vartheta * float64(T)) *
		mathx.Plog(math.E*x0DistSq/eps)
}

// EpochCount is Algorithm 2's epoch count ⌈log₂(α²·M·n/√ε)⌉ (Corollary
// 7.1), at least 1, where M = √M²; both runtimes' RunFull default to it.
func EpochCount(alpha0 float64, cst grad.Constants, n int, eps float64) int {
	m := math.Sqrt(cst.M2)
	v := alpha0 * alpha0 * m * float64(n) / math.Sqrt(eps)
	if v <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(v)))
}

// BoundTheorem65 is the raw Theorem-6.5 bound
// P(F_T) ≤ E[W_0]/((1 − α²HLMC√d)·T) for an arbitrary witness.
func BoundTheorem65(w Witness, tauMax, n, d, T int, x0DistSq float64) float64 {
	drift := w.DriftTerm(tauMax, n, d)
	if drift >= 1 {
		return math.Inf(1) // precondition violated: bound vacuous
	}
	return w.InitialBound(x0DistSq) / ((1 - drift) * float64(T))
}

// DelaySumBound is the Lemma-6.4 right-hand side 2√(τmax·n) bounding
// max_t Σ_m 1{τ_{t+m} ≥ m}.
func DelaySumBound(tauMax, n int) float64 {
	return 2 * math.Sqrt(float64(tauMax)*float64(n))
}

// --- Section 5: lower-bound closed forms -------------------------------

// StaleNoiseVariance is the Section-5 variance of the noise term after the
// adversary merges a τ-stale gradient:
//
//	σ²_merged = α²σ²(1 + (1−(1−α)^{2τ})/(1−(1−α)²)).
func StaleNoiseVariance(alpha, sigma float64, tau int) float64 {
	q := 1 - alpha
	return alpha * alpha * sigma * sigma *
		(1 + (1-math.Pow(q, 2*float64(tau)))/(1-q*q))
}

// StaleContraction is the Section-5 noiseless contraction factor after the
// stale merge: x_{τ+1} = ((1−α)^τ − α)·x_0, so the factor is |(1−α)^τ − α|.
// The adversary picks τ so that 2(1−α)^τ ≤ α, making it ≥ α/2.
func StaleContraction(alpha float64, tau int) float64 {
	return math.Abs(math.Pow(1-alpha, float64(tau)) - alpha)
}

// SequentialContraction is the noiseless sequential contraction after
// τ+1 iterations: (1−α)^{τ+1}.
func SequentialContraction(alpha float64, tau int) float64 {
	return math.Pow(1-alpha, float64(tau+1))
}

// CriticalDelay returns the smallest τ with 2(1−α)^τ ≤ α — the delay the
// Section-5 adversary needs to force the Ω(τ) slowdown (Theorem 5.1's
// τmax = O(log α / log(1−α))).
func CriticalDelay(alpha float64) int {
	if alpha <= 0 || alpha >= 1 {
		return 0
	}
	tau := math.Log(alpha/2) / math.Log(1-alpha)
	return int(math.Ceil(tau))
}

// SlowdownFactor is the Theorem-5.1 slowdown log((1−α)^τ)/log(α/2) =
// τ·log(1−α)/(log α − log 2): the factor by which per-iteration progress
// (in log-distance) drops under the adversary versus sequential execution.
func SlowdownFactor(alpha float64, tau int) float64 {
	return float64(tau) * math.Log(1-alpha) / (math.Log(alpha) - math.Log(2))
}

// --- Empirical supermartingale checking --------------------------------

// CheckResult summarizes an empirical supermartingale test.
type CheckResult struct {
	Steps      int     // number of (t → t+1) transitions checked
	MeanDrift  float64 // average of W_{t+1} − W_t across all transitions
	MaxMeanT   float64 // largest per-t mean drift
	Violations int     // count of per-t mean drifts exceeding tol
}

// CheckSupermartingale tests E[W_{t+1} − W_t] ≤ 0 empirically: series[i]
// is the W-trajectory of trial i (trajectories may have different
// lengths). Per time step t it averages the increment across trials and
// counts how many exceed tol (a slack for Monte-Carlo noise).
func CheckSupermartingale(series [][]float64, tol float64) CheckResult {
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	var res CheckResult
	var total mathx.Welford
	for t := 0; t+1 < maxLen; t++ {
		var w mathx.Welford
		for _, s := range series {
			if t+1 < len(s) {
				w.Add(s[t+1] - s[t])
			}
		}
		if w.N() == 0 {
			continue
		}
		res.Steps++
		m := w.Mean()
		total.Add(m)
		if m > res.MaxMeanT {
			res.MaxMeanT = m
		}
		if m > tol {
			res.Violations++
		}
	}
	res.MeanDrift = total.Mean()
	return res
}
