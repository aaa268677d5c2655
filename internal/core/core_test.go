package core

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

func isoOracle(t *testing.T, d int, sigma float64) *grad.Quadratic {
	t.Helper()
	q, err := grad.NewIsoQuadratic(d, 1, sigma, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRunEpochValidation(t *testing.T) {
	q := isoOracle(t, 2, 0.1)
	bad := []EpochConfig{
		{},
		{Threads: 1, TotalIters: 10, Alpha: 0.1, Oracle: q}, // nil policy
		{Threads: 0, TotalIters: 10, Alpha: 0.1, Oracle: q, Policy: &sched.RoundRobin{}},
		{Threads: 1, TotalIters: 0, Alpha: 0.1, Oracle: q, Policy: &sched.RoundRobin{}},
		{Threads: 1, TotalIters: 5, Alpha: 0, Oracle: q, Policy: &sched.RoundRobin{}},
		{Threads: 1, TotalIters: 5, Alpha: 0.1, Oracle: q, Policy: &sched.RoundRobin{},
			X0: vec.Dense{1}}, // wrong X0 dim
	}
	for i, cfg := range bad {
		if _, err := RunEpoch(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d accepted: %v", i, err)
		}
	}
}

func TestSingleThreadEpochMatchesSequentialSemantics(t *testing.T) {
	// With one thread and round-robin, the lock-free algorithm IS
	// sequential SGD: every view is fresh and τ ≡ 0.
	q := isoOracle(t, 3, 0.2)
	x0 := vec.Dense{2, -1, 1}
	res, err := RunEpoch(EpochConfig{
		Threads: 1, TotalIters: 200, Alpha: 0.1, Oracle: q,
		Policy: &sched.RoundRobin{}, Seed: 7, X0: x0,
		Record: true, Track: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Records); got != 200 {
		t.Fatalf("records = %d, want 200", got)
	}
	// Views must equal the running accumulator exactly.
	accs := res.Accumulators()
	for i, rec := range res.Records {
		if !vec.ApproxEqual(rec.View, accs[i], 1e-12) {
			t.Fatalf("iteration %d: view %v != accumulator %v", i, rec.View, accs[i])
		}
	}
	// Final memory equals final accumulator.
	if !vec.ApproxEqual(res.FinalX, accs[len(accs)-1], 1e-9) {
		t.Errorf("final X %v != x_T %v", res.FinalX, accs[len(accs)-1])
	}
	// Staleness all zero; contention zero.
	if res.Tracker.TauMaxView() != 0 || contention.TauMax(res.Windows) != 0 {
		t.Errorf("sequential run has staleness %d / contention %d",
			res.Tracker.TauMaxView(), contention.TauMax(res.Windows))
	}
	// And it converges on this easy quadratic.
	dist, err := vec.Dist2(res.FinalX, q.Optimum())
	if err != nil {
		t.Fatal(err)
	}
	if dist > 1.0 {
		t.Errorf("did not converge: dist %v", dist)
	}
}

func TestMultiThreadBudgetRespected(t *testing.T) {
	q := isoOracle(t, 2, 0.1)
	for _, n := range []int{2, 4, 7} {
		res, err := RunEpoch(EpochConfig{
			Threads: n, TotalIters: 100, Alpha: 0.05, Oracle: q,
			Policy: &sched.RoundRobin{}, Seed: uint64(n), Record: true, Track: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Completed != n {
			t.Errorf("n=%d: %d threads completed", n, res.Stats.Completed)
		}
		// Exactly 100 iterations run in total (counter-gated).
		if got := res.Tracker.Iterations(); got != 100 {
			t.Errorf("n=%d: %d iterations started, want 100", n, got)
		}
		if got := len(res.Records); got != 100 {
			t.Errorf("n=%d: %d records, want 100", n, got)
		}
	}
}

func TestFinalMemoryEqualsSumOfUpdates(t *testing.T) {
	// Fundamental fetch&add property: X_final = X0 − α Σ g̃ regardless of
	// interleaving.
	q := isoOracle(t, 4, 0.3)
	res, err := RunEpoch(EpochConfig{
		Threads: 4, TotalIters: 150, Alpha: 0.07, Oracle: q,
		Policy: &sched.Random{R: newRand(3)}, Seed: 11, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.X0.Clone()
	for _, rec := range res.Records {
		_ = sum.AddScaled(-res.Alpha, rec.Grad)
	}
	if !vec.ApproxEqual(sum, res.FinalX, 1e-9) {
		t.Errorf("Σ updates %v != final memory %v", sum, res.FinalX)
	}
}

func TestLemma61MaxIncompleteAtMostN(t *testing.T) {
	q := isoOracle(t, 3, 0.2)
	for _, n := range []int{2, 3, 5} {
		res, err := RunEpoch(EpochConfig{
			Threads: n, TotalIters: 120, Alpha: 0.05, Oracle: q,
			Policy: &sched.Random{R: newRand(uint64(n) + 40)}, Seed: 13, Track: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Tracker.MaxIncomplete(); got > n {
			t.Errorf("Lemma 6.1 violated: %d incomplete > n=%d", got, n)
		}
	}
}

func TestAdversaryStaleGradientDelaysVictim(t *testing.T) {
	q := isoOracle(t, 2, 0.1)
	res, err := RunEpoch(EpochConfig{
		Threads: 2, TotalIters: 60, Alpha: 0.05, Oracle: q,
		Policy: &sched.StaleGradient{Victim: 1, DelayIters: 20},
		Seed:   17, Record: true, Track: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The victim's first iteration must be ordered ~20 iterations late.
	tauMax := res.Tracker.TauMaxView()
	if tauMax < 15 {
		t.Errorf("stale-gradient adversary produced τmax=%d, want ≥ 15", tauMax)
	}
	// Interval contention reflects the delay too.
	if got := contention.TauMax(res.Windows); got < 15 {
		t.Errorf("interval contention %d, want ≥ 15", got)
	}
}

func TestAdversaryMaxStaleRespectsBudget(t *testing.T) {
	q := isoOracle(t, 2, 0.1)
	for _, budget := range []int{4, 10, 25} {
		res, err := RunEpoch(EpochConfig{
			Threads: 3, TotalIters: 200, Alpha: 0.02, Oracle: q,
			Policy: &sched.MaxStale{Budget: budget},
			Seed:   19, Track: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tauMax := contention.TauMax(res.Windows)
		// Contention should scale with the budget but stay near it.
		if tauMax < budget/2 {
			t.Errorf("budget %d: τmax=%d too small", budget, tauMax)
		}
		if tauMax > budget+2*3+2 {
			t.Errorf("budget %d: τmax=%d exceeds budget+2n slack", budget, tauMax)
		}
	}
}

func TestLemma62BadIterationsUnderAdversary(t *testing.T) {
	q := isoOracle(t, 2, 0.1)
	n := 3
	res, err := RunEpoch(EpochConfig{
		Threads: n, TotalIters: 300, Alpha: 0.02, Oracle: q,
		Policy: &sched.MaxStale{Budget: 12}, Seed: 23, Track: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		if got := contention.MaxBadCompletions(res.Windows, k, n); got >= n {
			t.Errorf("Lemma 6.2 violated at K=%d: %d bad ≥ n=%d", k, got, n)
		}
	}
}

func TestCrashedThreadsDoNotBlockProgress(t *testing.T) {
	q := isoOracle(t, 2, 0.1)
	res, err := RunEpoch(EpochConfig{
		Threads: 4, TotalIters: 80, Alpha: 0.05, Oracle: q,
		Policy: &crashAt{
			inner: &sched.RoundRobin{},
			times: map[int]int{0: 30, 2: 60},
		},
		Seed: 29, Track: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Crashed != 2 {
		t.Fatalf("crashed = %d, want 2", res.Stats.Crashed)
	}
	// Remaining threads must finish the budget (wait-freedom under
	// crashes: the counter gates total work, each claim is one FAA).
	if res.Stats.Completed != 2 {
		t.Errorf("completed = %d, want 2", res.Stats.Completed)
	}
	if got := res.Tracker.Iterations(); got < 78 {
		t.Errorf("iterations = %d, want ≈80 despite crashes", got)
	}
}

func TestHitTimeAndDistSeries(t *testing.T) {
	q := isoOracle(t, 2, 0.05)
	x0 := vec.Dense{3, 3}
	res, err := RunEpoch(EpochConfig{
		Threads: 2, TotalIters: 400, Alpha: 0.08, Oracle: q,
		Policy: &sched.RoundRobin{}, Seed: 31, X0: x0, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	xstar := q.Optimum()
	eps := 0.05
	ht := res.HitTime(xstar, eps)
	if ht <= 0 {
		t.Fatalf("HitTime = %d, want positive (starts far, converges)", ht)
	}
	series := res.DistSqSeries(xstar)
	if len(series) != len(res.Records)+1 {
		t.Fatalf("series length %d", len(series))
	}
	if series[ht] > eps || series[ht-1] <= eps {
		t.Errorf("hit time inconsistent with series: series[%d]=%v series[%d]=%v",
			ht, series[ht], ht-1, series[ht-1])
	}
	// HitTime at 0 when starting inside the region.
	res2, err := RunEpoch(EpochConfig{
		Threads: 1, TotalIters: 5, Alpha: 0.01, Oracle: q,
		Policy: &sched.RoundRobin{}, Seed: 3, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.HitTime(xstar, 1.0); got != 0 {
		t.Errorf("HitTime from inside = %d, want 0", got)
	}
}

func TestAlphaFormulas(t *testing.T) {
	cst := grad.Constants{C: 1, L: 1, M2: 4}
	eps, vt := 0.01, 1.0
	seq := AlphaSequential(cst, eps, vt)
	if math.Abs(seq-eps/4) > 1e-15 {
		t.Errorf("AlphaSequential = %v, want %v", seq, eps/4)
	}
	hw := AlphaHogwild(cst, eps, vt, 10)
	if hw >= seq {
		t.Errorf("hogwild α %v not smaller than sequential %v", hw, seq)
	}
	as := AlphaAsync(cst, eps, vt, 10, 4, 2)
	if as >= seq {
		t.Errorf("async α %v not smaller than sequential %v", as, seq)
	}
	// More delay ⇒ smaller step.
	if AlphaAsync(cst, eps, vt, 100, 4, 2) >= as {
		t.Error("α must decrease with τmax")
	}
	if got := CBound(9, 4); got != 12 {
		t.Errorf("CBound(9,4) = %v, want 12", got)
	}
}

// newRand returns a seeded generator for scheduler policies in tests.
func newRand(seed uint64) *rng.Rand { return rng.New(seed) }
