package experiments

import (
	"math"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/martingale"
	"asyncsgd/internal/mathx"
	"asyncsgd/internal/report"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// E5UpperBound regenerates the paper's main result (Theorem 6.5 /
// Corollary 6.7): lock-free SGD with the Corollary-6.7 step size converges
// against the adaptive max-staleness adversary, with failure probability
// dominated by bound (13) and iterations-to-success growing like
// √(τmax·n) rather than linearly in τmax.
//
// Table 1: measured P(F_T) vs bound across (n, τmax-budget).
// Table 2: mean iterations-to-success vs τmax, with a fitted power-law
// exponent (the paper predicts ≤ 0.5 in τmax; prior work predicted 1).
func E5UpperBound(s Scale) ([]*report.Table, error) {
	const (
		d   = 4
		eps = 0.25
		vt  = 1.0
	)
	q, x0, err := stdQuadratic(d, 0.5, 3, 1)
	if err != nil {
		return nil, err
	}
	cst := q.Constants()
	xstar := q.Optimum()
	x0DistSq, err := vec.Dist2Sq(x0, xstar)
	if err != nil {
		return nil, err
	}
	trials := s.pick(120, 1000)
	T := s.pick(1500, 6000)

	bounds := report.New("E5a: P(F_T) under the max-stale adversary vs Corollary 6.7",
		"n", "budget", "tau_max_meas", "alpha(12)", "P_measured", "CI95_high",
		"bound(13)", "drift<1", "holds")
	bounds.Note = "iso quadratic d=4, ε=0.25, ϑ=1; α set per Corollary 6.7 with τmax = budget+2n"
	type scalingPoint struct {
		tau float64
		hit float64
	}
	var pts []scalingPoint
	for _, n := range []int{2, 4} {
		for _, budget := range []int{0, 8, 32} {
			tauAssumed := budget + 2*n
			alpha := core.AlphaAsync(cst, eps, vt, tauAssumed, n, d)
			mk := func() core.EpochConfig {
				var pol shm.Policy
				if budget == 0 {
					pol = &sched.RoundRobin{}
				} else {
					pol = &sched.MaxStale{Budget: budget}
				}
				return core.EpochConfig{
					Threads: n, TotalIters: T, Alpha: alpha,
					Oracle: q, Policy: pol, X0: x0,
				}
			}
			fails, meanHit, err := epochFailureProbCount(mk, xstar, eps, trials, uint64(1000+budget*10+n))
			if err != nil {
				return nil, err
			}
			p := float64(fails) / float64(trials)
			_, hi := mathx.WilsonInterval(fails, trials, 1.96)

			// One more run for the honest measured τmax.
			tcfg := mk()
			tcfg.Seed = uint64(5 + budget)
			tres, err := core.RunEpoch(tcfg)
			if err != nil {
				return nil, err
			}
			tauMeas := contention.TauMax(tres.Windows)

			w, err := martingale.NewWitness(eps, alpha, cst)
			if err != nil {
				return nil, err
			}
			bound := martingale.BoundAsync(cst, eps, vt, tauAssumed, n, d, T, x0DistSq)
			bounds.AddRow(report.In(n), report.In(budget), report.In(tauMeas),
				report.Fl(alpha), report.Fl(p), report.Fl(hi), report.Fl(bound),
				boolCell(w.DriftOK(tauAssumed, n, d)),
				boolCell(bound >= hi || bound >= 1))
			if meanHit > 0 {
				pts = append(pts, scalingPoint{tau: float64(tauAssumed), hit: meanHit})
			}
		}
	}

	scaling := report.New("E5b: iterations-to-success scaling in τmax",
		"tau_max", "mean_hit_iters")
	xs := make([]float64, 0, len(pts))
	ys := make([]float64, 0, len(pts))
	for _, p := range pts {
		scaling.AddRow(report.Fl(p.tau), report.Fl(p.hit))
		xs = append(xs, p.tau)
		ys = append(ys, p.hit)
	}
	if len(xs) >= 3 {
		_, exp, r2 := mathx.PowerFit(xs, ys)
		scaling.Note = "fitted hit ∝ τmax^p: p=" + report.Fl(exp) +
			" (r²=" + report.Fl(r2) + "); paper predicts p ≤ 0.5 with the (12) step size, prior work p = 1"
	}
	return []*report.Table{bounds, scaling}, nil
}

// epochFailureProbCount estimates P(F_T) for the lock-free algorithm: it
// counts the trials whose accumulator sequence x_0..x_T never enters
// S = {‖x−x*‖² ≤ eps} and averages the hit time of the others. mk builds
// the per-trial epoch config (the seed is overridden per trial).
func epochFailureProbCount(mk func() core.EpochConfig, xstar []float64, eps float64,
	trials int, seed uint64) (fails int, meanHit float64, err error) {
	var hits mathx.Welford
	for k := 0; k < trials; k++ {
		cfg := mk()
		cfg.Seed = seed + uint64(k)*0x9E3779B97F4A7C15
		cfg.Record = true
		res, rerr := core.RunEpoch(cfg)
		if rerr != nil {
			return 0, 0, rerr
		}
		ht := res.HitTime(xstar, eps)
		if ht < 0 {
			fails++
		} else {
			hits.Add(float64(ht))
		}
	}
	return fails, hits.Mean(), nil
}

// E6FullSGD regenerates Corollary 7.1: Algorithm 2 (epoch halving with a
// locally-accumulated last epoch) reaches E‖r − x*‖ ≤ √ε even under the
// adversary, in the predicted number of epochs.
func E6FullSGD(s Scale) ([]*report.Table, error) {
	q, _, err := stdQuadratic(3, 0.3, 3, 1)
	if err != nil {
		return nil, err
	}
	cst := q.Constants()
	trials := s.pick(12, 80)
	T := s.pick(500, 2000)
	tbl := report.New("E6: FullSGD final error vs target (Corollary 7.1)",
		"epsilon", "sqrt(eps)", "epochs(formula)", "mean ‖r-x*‖", "max ‖r-x*‖", "holds(mean)")
	tbl.Note = "adversary = max-stale(6), α₀ = 0.5, T per epoch = " + report.In(T)
	for _, eps := range []float64{0.2, 0.05} {
		epochs := martingale.EpochCount(0.5, cst, 3, eps)
		var w mathx.Welford
		worst := 0.0
		for k := 0; k < trials; k++ {
			res, err := core.RunFull(core.FullConfig{
				Threads: 3, Epsilon: eps, Alpha0: 0.5, ItersPerEpoch: T,
				Oracle: q, Seed: uint64(400 + k),
				PolicyFactory: func(int) shm.Policy { return &sched.MaxStale{Budget: 6} },
			})
			if err != nil {
				return nil, err
			}
			w.Add(res.FinalDist)
			if res.FinalDist > worst {
				worst = res.FinalDist
			}
		}
		tbl.AddRow(report.Fl(eps), report.Fl(math.Sqrt(eps)), report.In(epochs),
			report.Fl(w.Mean()), report.Fl(worst),
			boolCell(w.Mean() <= math.Sqrt(eps)))
	}
	return []*report.Table{tbl}, nil
}
