package experiments

import (
	"math"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/martingale"
	"asyncsgd/internal/mathx"
	"asyncsgd/internal/report"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// E11SparsityAblation regenerates the paper's point 2) of the technical
// contribution list: the prior analysis (De Sa et al., Theorems 3.1/6.3 in
// the paper) requires stochastic gradients with a SINGLE non-zero entry;
// the paper's Theorem 6.5 / Corollary 6.7 removes that assumption. The
// ablation runs the same adversarial workload with (a) dense gradients
// (outside the prior theory) and (b) the single-non-zero oracle, with each
// regime's own Corollary-6.7 step size, and shows both converge with the
// bound (13) holding — while the prior Theorem-6.3 bound is only even
// applicable to (b).
func E11SparsityAblation(s Scale) ([]*report.Table, error) {
	const (
		d   = 4
		eps = 0.25
		vt  = 1.0
		n   = 3
	)
	base, x0, err := stdQuadratic(d, 0.4, 3, 1)
	if err != nil {
		return nil, err
	}
	x0DistSq, err := vec.Dist2Sq(x0, base.Optimum())
	if err != nil {
		return nil, err
	}
	trials := s.pick(100, 600)
	T := s.pick(3000, 12000)
	budget := 8
	tauAssumed := budget + 2*n

	tbl := report.New("E11: dense vs single-non-zero gradients under the adversary",
		"oracle", "alpha(12)", "P_measured", "CI95_high", "bound(13)",
		"mean_hit", "Thm6.3 applicable", "holds")
	tbl.Note = "iso quadratic d=4, n=3, max-stale(8); the prior analysis covers only the single-non-zero oracle"
	cases := []struct {
		name    string
		oracle  grad.Oracle
		priorOK string
	}{
		{"dense", base, "no (dense gradients)"},
		{"single-nz", grad.NewSingleCoordinate(base), "yes"},
	}
	for _, c := range cases {
		cst := c.oracle.Constants()
		alpha := core.AlphaAsync(cst, eps, vt, tauAssumed, n, d)
		mk := func() core.EpochConfig {
			return core.EpochConfig{
				Threads: n, TotalIters: T, Alpha: alpha,
				Oracle: c.oracle, Policy: &sched.MaxStale{Budget: budget}, X0: x0,
			}
		}
		fails, meanHit, err := epochFailureProbCount(mk, base.Optimum(), eps, trials, 4100)
		if err != nil {
			return nil, err
		}
		p := float64(fails) / float64(trials)
		_, hi := mathx.WilsonInterval(fails, trials, 1.96)
		bound := martingale.BoundAsync(cst, eps, vt, tauAssumed, n, d, T, x0DistSq)
		tbl.AddRow(c.name, report.Fl(alpha), report.Fl(p), report.Fl(hi),
			report.Fl(bound), report.Fl(meanHit), c.priorOK,
			boolCell(bound >= hi || bound >= 1))
	}
	return []*report.Table{tbl}, nil
}

// E12Momentum probes the §8 remark that a momentum term is an alternative
// mitigation (Mitliagkas et al.): under asynchrony, staleness itself acts
// like momentum, so explicit momentum must be reduced as delays grow or
// the combined effective momentum destabilizes the iteration. The table
// sweeps explicit β against the adversary's delay budget and reports the
// per-iteration convergence rate of the deterministic 1-D dynamics.
func E12Momentum(s Scale) ([]*report.Table, error) {
	const (
		alpha = 0.15
		x0    = 1.2
	)
	// The dynamics are deterministic, so scale does not add precision;
	// T is capped so |x_T| stays far from the float64 underflow floor
	// (rate·T must stay well below −log(minfloat) ≈ 744) — otherwise all
	// fast configurations saturate at the same apparent rate.
	T := s.pick(3000, 3000)
	tbl := report.New("E12: explicit momentum × adversarial delay (convergence rate)",
		"beta", "budget=0", "budget=4", "budget=16")
	tbl.Note = "noiseless f(x)=x²/2, 2 threads, α=" + report.Fl(alpha) +
		"; entries are rates −log(|x_T|/|x₀|)/T (0 = stalled/diverging)"
	for _, beta := range []float64{0, 0.3, 0.6, 0.9} {
		row := []string{report.Fl(beta)}
		for _, budget := range []int{0, 4, 16} {
			rate, err := momentumRate(alpha, beta, x0, budget, T)
			if err != nil {
				return nil, err
			}
			if rate < 0 {
				rate = 0
			}
			row = append(row, report.Fl(rate))
		}
		tbl.AddRow(row...)
	}
	return []*report.Table{tbl}, nil
}

func momentumRate(alpha, beta, x0 float64, budget, T int) (float64, error) {
	q, err := grad.NewQuad1D(0, math.Abs(x0)+1)
	if err != nil {
		return 0, err
	}
	var pol shm.Policy
	if budget == 0 {
		pol = &sched.RoundRobin{}
	} else {
		pol = &sched.MaxStale{Budget: budget}
	}
	res, err := core.RunEpoch(core.EpochConfig{
		Threads: 2, TotalIters: T, Alpha: alpha, Oracle: q,
		Policy: pol, Seed: 1, X0: vec.Dense{x0}, Momentum: beta,
	})
	if err != nil {
		return 0, err
	}
	xT := math.Abs(res.FinalX[0])
	if xT == 0 {
		xT = math.SmallestNonzeroFloat64
	}
	if math.IsInf(xT, 0) || math.IsNaN(xT) {
		return 0, nil // diverged
	}
	return -math.Log(xT/math.Abs(x0)) / float64(T), nil
}

// E13StalenessAware regenerates the related-work discussion: staleness-
// aware step scaling (Zhang et al. / Zheng et al. style, one extra counter
// read per iteration) neutralizes DELAYS IT CAN OBSERVE — those occurring
// before the staleness estimate — but the paper's strong adaptive
// adversary freezes the victim between the estimate and the application,
// so the Ω(τ) lower bound applies to these algorithms too.
func E13StalenessAware(s Scale) ([]*report.Table, error) {
	const (
		alpha = 0.2
		x0    = 1.0
	)
	tbl := report.New("E13: staleness-aware scaling vs delay placement",
		"tau", "|x| plain", "|x| aware, delay pre-probe", "|x| aware, delay post-probe",
		"lower bound applies")
	tbl.Note = "single stale merge on noiseless f(x)=x²/2, η=1, fixed α=" + report.Fl(alpha) +
		"; pre-probe delays are observable (mitigated), post-probe delays are the adaptive adversary"
	for _, tau := range []int{10, 40, 160} {
		run := func(eta float64, hold contention.Role) (float64, error) {
			q, err := grad.NewQuad1D(0, x0+1)
			if err != nil {
				return 0, err
			}
			res, err := core.RunEpoch(core.EpochConfig{
				Threads: 2, TotalIters: tau + 1, Alpha: alpha, Oracle: q,
				Policy: &sched.StaleGradient{Victim: 1, DelayIters: tau, HoldRole: hold},
				Seed:   1, X0: vec.Dense{x0}, StalenessEta: eta,
			})
			if err != nil {
				return 0, err
			}
			return math.Abs(res.FinalX[0]), nil
		}
		plain, err := run(0, 0)
		if err != nil {
			return nil, err
		}
		pre, err := run(1, contention.RoleProbe)
		if err != nil {
			return nil, err
		}
		post, err := run(1, contention.RoleUpdate)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(report.In(tau), report.Fl(plain), report.Fl(pre), report.Fl(post),
			boolCell(math.Abs(post-plain) < 1e-9))
	}
	return []*report.Table{tbl}, nil
}
