package martingale

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/baseline"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/mathx"
	"asyncsgd/internal/vec"
)

func testWitness(t *testing.T) Witness {
	t.Helper()
	cst := grad.Constants{C: 1, L: 1, M2: 4}
	w, err := NewWitness(0.25, 0.05, cst)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWitnessValidation(t *testing.T) {
	cst := grad.Constants{C: 1, L: 1, M2: 4}
	// α ≥ 2cε/M² = 0.125 violates the drift condition.
	if _, err := NewWitness(0.25, 0.2, cst); !errors.Is(err, ErrBadWitness) {
		t.Errorf("oversized α accepted: %v", err)
	}
	if _, err := NewWitness(0, 0.05, cst); !errors.Is(err, ErrBadWitness) {
		t.Error("ε=0 accepted")
	}
	if _, err := NewWitness(0.25, 0, cst); !errors.Is(err, ErrBadWitness) {
		t.Error("α=0 accepted")
	}
}

func TestWitnessValueAndH(t *testing.T) {
	w := testWitness(t)
	denom := 2*0.05*1*0.25 - 0.05*0.05*4 // 0.025 − 0.01 = 0.015
	if math.Abs(w.Denom()-denom) > 1e-15 {
		t.Errorf("Denom = %v, want %v", w.Denom(), denom)
	}
	wantH := 2 * math.Sqrt(0.25) / denom
	if math.Abs(w.H()-wantH) > 1e-12 {
		t.Errorf("H = %v, want %v", w.H(), wantH)
	}
	// W grows by 1 per unit time.
	if d := w.Value(5, 1) - w.Value(4, 1); math.Abs(d-1) > 1e-12 {
		t.Errorf("time increment = %v", d)
	}
	// W is increasing in distance.
	if w.Value(0, 4) <= w.Value(0, 1) {
		t.Error("W not increasing in distance")
	}
	// InitialBound dominates Value(0, ·) (plog(e·z) ≥ plog(z)).
	if w.InitialBound(2) < w.Value(0, 2)-1e-12 {
		t.Errorf("InitialBound %v < W0 %v", w.InitialBound(2), w.Value(0, 2))
	}
}

// The reconstruction check: the W process of Lemma 6.6 must actually be a
// supermartingale along sequential SGD trajectories (before success). This
// validates the ε-restored formulas against the real dynamics.
func TestWitnessIsSupermartingaleEmpirically(t *testing.T) {
	const (
		eps    = 0.25
		trials = 400
		T      = 60
	)
	q, err := grad.NewIsoQuadratic(2, 1, 0.4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cst := q.Constants()
	alpha := cst.C * eps * 1.0 / cst.M2 // Theorem-3.1 rate, ϑ=1
	w, err := NewWitness(eps, alpha, cst)
	if err != nil {
		t.Fatal(err)
	}
	x0 := vec.Dense{1.8, -1.2}
	series := make([][]float64, 0, trials)
	for k := 0; k < trials; k++ {
		res, err := baseline.RunSequential(baseline.SeqConfig{
			Oracle: q, X0: x0, Alpha: alpha, Iters: T,
			Seed: 1000 + uint64(k), TrackDist: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		traj := make([]float64, 0, T+1)
		for tt, d2 := range res.DistSq {
			if d2 <= eps {
				break // W freezes at success; stop the trajectory
			}
			traj = append(traj, w.Value(tt, d2))
		}
		if len(traj) >= 2 {
			series = append(series, traj)
		}
	}
	res := CheckSupermartingale(series, 0.35) // generous Monte-Carlo slack
	if res.Steps == 0 {
		t.Fatal("no transitions checked")
	}
	if res.MeanDrift > 0.05 {
		t.Errorf("mean drift %v > 0: not a supermartingale", res.MeanDrift)
	}
	if res.Violations > res.Steps/5 {
		t.Errorf("%d/%d per-step violations", res.Violations, res.Steps)
	}
}

func TestBoundsOrderingAndScaling(t *testing.T) {
	cst := grad.Constants{C: 1, L: 1, M2: 4}
	eps, vt, T, d2 := 0.1, 1.0, 1000, 4.0
	seq := BoundSequential(cst, eps, vt, T, d2)
	hog := BoundHogwild(cst, eps, vt, 8, T, d2)
	asy := BoundAsync(cst, eps, vt, 8, 4, 4, T, d2)
	if seq <= 0 || hog <= seq || asy <= seq {
		t.Errorf("ordering: seq=%v hog=%v async=%v", seq, hog, asy)
	}
	// All bounds decay like 1/T.
	if r := BoundSequential(cst, eps, vt, 2*T, d2) / seq; math.Abs(r-0.5) > 1e-12 {
		t.Errorf("sequential bound not ∝ 1/T: ratio %v", r)
	}
	// Hogwild bound grows linearly in τ; async grows like √τmax.
	g1 := BoundHogwild(cst, eps, vt, 16, T, d2) - hog
	g2 := BoundHogwild(cst, eps, vt, 24, T, d2) - BoundHogwild(cst, eps, vt, 16, T, d2)
	if math.Abs(g1-g2) > 1e-9 {
		t.Errorf("hogwild τ-dependence not linear: %v vs %v", g1, g2)
	}
	a4 := BoundAsync(cst, eps, vt, 4, 4, 4, T, d2) - seq
	a16 := BoundAsync(cst, eps, vt, 16, 4, 4, T, d2) - seq
	if math.Abs(a16/a4-2) > 1e-9 { // √16/√4 = 2
		t.Errorf("async τmax-dependence not √: ratio %v", a16/a4)
	}
}

func TestBoundTheorem65(t *testing.T) {
	// Pick the Corollary-6.7 step size so the drift precondition holds.
	cst := grad.Constants{C: 1, L: 1, M2: 4}
	eps := 0.25
	tauMax, n, d := 4, 2, 2
	alpha := cst.C * eps / (cst.M2 + 2*math.Sqrt(eps)*cst.L*math.Sqrt(cst.M2)*
		2*math.Sqrt(float64(tauMax)*float64(n))*math.Sqrt(float64(d)))
	w, err := NewWitness(eps, alpha, cst)
	if err != nil {
		t.Fatal(err)
	}
	if !w.DriftOK(tauMax, n, d) {
		t.Fatalf("Cor-6.7 α should satisfy the drift precondition; drift=%v",
			w.DriftTerm(tauMax, n, d))
	}
	b := BoundTheorem65(w, tauMax, n, d, 1000, 1.0)
	if b <= 0 || math.IsInf(b, 0) {
		t.Fatalf("bound = %v", b)
	}
	// Must exceed the drift-free bound E[W0]/T.
	if b < w.InitialBound(1.0)/1000 {
		t.Errorf("bound below drift-free value")
	}
	// Vacuous when the precondition fails (huge τmax).
	if got := BoundTheorem65(w, 1<<30, 64, 64, 1000, 1.0); !math.IsInf(got, 1) {
		t.Errorf("violated precondition should give +Inf, got %v", got)
	}
	if w.DriftOK(1<<30, 64, 64) {
		t.Error("DriftOK true for enormous τmax")
	}
}

func TestSection5ClosedForms(t *testing.T) {
	alpha := 0.1
	// Critical delay: smallest τ with 2(1−α)^τ ≤ α.
	tau := CriticalDelay(alpha)
	if 2*math.Pow(1-alpha, float64(tau)) > alpha {
		t.Errorf("CriticalDelay(%v)=%d does not satisfy 2(1−α)^τ ≤ α", alpha, tau)
	}
	if tau > 1 && 2*math.Pow(1-alpha, float64(tau-1)) <= alpha {
		t.Errorf("CriticalDelay not minimal: τ−1 also works")
	}
	if CriticalDelay(0) != 0 || CriticalDelay(1) != 0 {
		t.Error("degenerate α should give 0")
	}
	// At the critical delay the adversarial contraction is ≥ α/2 while the
	// sequential one is ≤ α/2·(1−α): a real gap.
	if StaleContraction(alpha, tau) < alpha/2-1e-12 {
		t.Errorf("stale contraction %v < α/2", StaleContraction(alpha, tau))
	}
	if SequentialContraction(alpha, tau) >= StaleContraction(alpha, tau) {
		t.Errorf("sequential %v not faster than adversarial %v",
			SequentialContraction(alpha, tau), StaleContraction(alpha, tau))
	}
	// Slowdown factor is Ω(τ): doubling τ doubles it.
	s1, s2 := SlowdownFactor(alpha, tau), SlowdownFactor(alpha, 2*tau)
	if math.Abs(s2/s1-2) > 1e-9 {
		t.Errorf("slowdown not linear in τ: %v vs %v", s1, s2)
	}
	// Variance formula sanity: grows with τ and approaches the geometric
	// limit α²σ²(1 + 1/(1−(1−α)²)).
	v1 := StaleNoiseVariance(alpha, 1, 1)
	v2 := StaleNoiseVariance(alpha, 1, 50)
	limit := alpha * alpha * (1 + 1/(1-(1-alpha)*(1-alpha)))
	if v1 >= v2 || v2 > limit+1e-12 {
		t.Errorf("variance: v(1)=%v v(50)=%v limit=%v", v1, v2, limit)
	}
}

func TestDelaySumBound(t *testing.T) {
	if got := DelaySumBound(9, 4); got != 12 {
		t.Errorf("DelaySumBound(9,4) = %v, want 12", got)
	}
}

func TestCheckSupermartingaleDetectsSubmartingale(t *testing.T) {
	// Strictly increasing trajectories must be flagged.
	series := make([][]float64, 50)
	for i := range series {
		traj := make([]float64, 20)
		for t := range traj {
			traj[t] = float64(t)
		}
		series[i] = traj
	}
	res := CheckSupermartingale(series, 0.1)
	if res.Violations != res.Steps || res.MeanDrift < 0.9 {
		t.Errorf("submartingale not detected: %+v", res)
	}
	// Empty input is handled.
	if r := CheckSupermartingale(nil, 0.1); r.Steps != 0 {
		t.Errorf("empty check = %+v", r)
	}
}

func TestPlogUsedConsistently(t *testing.T) {
	// W at distance exactly ε uses plog(1) = 1 (continuity knee).
	w := testWitness(t)
	got := w.Value(0, w.Eps)
	want := w.Eps / w.Denom() * mathx.Plog(1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Value at knee = %v, want %v", got, want)
	}
}

func TestEpochCount(t *testing.T) {
	cst := grad.Constants{C: 1, L: 1, M2: 16}
	if got := EpochCount(1e-6, cst, 2, 0.01); got != 1 {
		t.Errorf("tiny α should give 1 epoch, got %d", got)
	}
	// α=1, M=4, n=4, ε=1e-4: α²Mn/√ε = 16/0.01 = 1600 → ⌈log2⌉ = 11.
	if got := EpochCount(1, cst, 4, 1e-4); got != 11 {
		t.Errorf("EpochCount = %d, want 11", got)
	}
}
