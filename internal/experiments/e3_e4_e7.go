package experiments

import (
	"fmt"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/martingale"
	"asyncsgd/internal/report"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
)

// policyCase names a scheduler construction for the structural lemmas.
type policyCase struct {
	name string
	mk   func(seed uint64) shm.Policy
}

func structuralPolicies(budget int) []policyCase {
	return []policyCase{
		{"round-robin", func(uint64) shm.Policy { return &sched.RoundRobin{} }},
		{"random", func(seed uint64) shm.Policy { return &sched.Random{R: rng.New(seed)} }},
		{"geom-pause", func(seed uint64) shm.Policy {
			return &sched.GeometricPause{R: rng.New(seed), PauseProb: 0.2, Resume: 0.1}
		}},
		{fmt.Sprintf("max-stale(%d)", budget), func(uint64) shm.Policy {
			return &sched.MaxStale{Budget: budget}
		}},
		{"quantum(40)", func(seed uint64) shm.Policy {
			return &sched.Quantum{Q: 40, R: rng.New(seed)}
		}},
	}
}

// structuralRun executes one epoch of the standard quadratic under the
// given policy, tracked when the caller reads a view statistic.
func structuralRun(n, T int, pol shm.Policy, seed uint64, track bool) (*core.EpochResult, error) {
	q, x0, err := stdQuadratic(4, 0.5, 3, 1)
	if err != nil {
		return nil, err
	}
	return core.RunEpoch(core.EpochConfig{
		Threads: n, TotalIters: T, Alpha: 0.02, Oracle: q,
		Policy: pol, Seed: seed, X0: x0, Track: track,
	})
}

// E3BadIterations regenerates Lemma 6.2: in every interval during which
// exactly K·n consecutive iterations start, fewer than n "bad" iterations
// (those overlapping more than K·n starts) complete. The table sweeps
// schedulers, thread counts and K; the Lemma requires max_bad < n always.
func E3BadIterations(s Scale) ([]*report.Table, error) {
	T := s.pick(300, 2000)
	tbl := report.New("E3: Lemma 6.2 — bad iterations per K·n window",
		"policy", "n", "K", "max_bad", "bound n-1", "holds")
	for _, n := range []int{2, 4, 8} {
		for _, pc := range structuralPolicies(3 * n) {
			res, err := structuralRun(n, T, pc.mk(uint64(77+n)), uint64(7*n), false)
			if err != nil {
				return nil, err
			}
			for _, k := range []int{1, 2} {
				got := contention.MaxBadCompletions(res.Windows, k, n)
				tbl.AddRow(pc.name, report.In(n), report.In(k),
					report.In(got), report.In(n-1), boolCell(got < n))
			}
		}
	}
	return []*report.Table{tbl}, nil
}

// E4DelaySum regenerates Lemma 6.4: the measured delay-indicator sum
// max_t Σ_m 1{τ_{t+m} ≥ m} never exceeds 2·√(τmax·n), with τmax the
// measured maximum interval contention.
func E4DelaySum(s Scale) ([]*report.Table, error) {
	T := s.pick(400, 3000)
	tbl := report.New("E4: Lemma 6.4 — delay-indicator sum vs 2√(τmax·n)",
		"policy", "n", "tau_max", "sum_measured", "bound", "ratio", "holds")
	for _, n := range []int{2, 4} {
		for _, budget := range []int{2, 8, 32} {
			pcs := []policyCase{
				{fmt.Sprintf("max-stale(%d)", budget), func(uint64) shm.Policy {
					return &sched.MaxStale{Budget: budget}
				}},
				{"random", func(seed uint64) shm.Policy {
					return &sched.Random{R: rng.New(seed)}
				}},
			}
			for _, pc := range pcs {
				res, err := structuralRun(n, T, pc.mk(uint64(100+budget)), uint64(9*budget+n), true)
				if err != nil {
					return nil, err
				}
				tauMax := contention.TauMax(res.Windows)
				sum := res.Tracker.DelayIndicatorMax()
				bound := martingale.DelaySumBound(tauMax, n)
				ratio := 0.0
				if bound > 0 {
					ratio = float64(sum) / bound
				}
				tbl.AddRow(pc.name, report.In(n), report.In(tauMax),
					report.In(sum), report.Fl(bound), report.Fl(ratio),
					boolCell(float64(sum) <= bound))
			}
		}
	}
	return []*report.Table{tbl}, nil
}

// E7AvgContention regenerates the Section-2 claim (Gibson–Gramoli) that
// the average interval contention satisfies τavg ≤ 2n across schedulers
// with bounded per-iteration delay.
func E7AvgContention(s Scale) ([]*report.Table, error) {
	T := s.pick(400, 3000)
	tbl := report.New("E7: average interval contention vs 2n",
		"policy", "n", "tau_avg", "tau_max", "2n", "tau_avg<=2n")
	for _, n := range []int{2, 4, 8} {
		for _, pc := range structuralPolicies(2 * n) {
			res, err := structuralRun(n, T, pc.mk(uint64(3*n)), uint64(13*n), false)
			if err != nil {
				return nil, err
			}
			avg := contention.TauAvg(res.Windows)
			tbl.AddRow(pc.name, report.In(n), report.Fl(avg),
				report.In(contention.TauMax(res.Windows)), report.In(2*n),
				boolCell(avg <= float64(2*n)))
		}
	}
	return []*report.Table{tbl}, nil
}

func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
