package experiments

import (
	"fmt"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/martingale"
	"asyncsgd/internal/report"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// E16StalenessGate closes the loop between the paper's Section-5 lower
// bound and a runtime that actively caps the delay τ the bound is driven
// by. The Section-5 adversary (E2) injects τ_adv iterations of staleness
// and slows convergence by Ω(τ_adv); a bounded-staleness gate
// (EpochConfig.StalenessBound / hogwild.NewBoundedStaleness) refuses to
// let any iteration run more than τ ahead of the slowest in-flight one,
// so the adversary's injectable delay collapses from τ_adv to ≤ τ —
// Theorem 6.5's parameter becomes a runtime knob instead of an
// adversary's choice.
//
// (a) Machine, Section-5 construction: the E2 stale-merge schedule with a
// large τ_adv, swept over gate values τ. The measured staleness must obey
// the gate and the final suboptimality must beat the ungated adversarial
// outcome (whose closed form E2 records).
// (b) Machine, max-staleness adversary on a quadratic: convergence vs τ
// with the synchronization overhead (steps/iter) the gate costs.
// (c) Real threads: the three disciplines next to lock-free and
// coarse-lock — throughput, shared traffic, quality, and the observed
// staleness of the gated runs (bounded by τ, and by E−1 for the fence).
func E16StalenessGate(s Scale) ([]*report.Table, error) {
	// --- (a) the Section-5 schedule vs the gate ---------------------------
	const alphaA = 0.1
	tauAdv := s.pick(40, 200)
	a := report.New("E16a: staleness gate vs the Section-5 adversary (machine)",
		"gate_tau", "measured_staleness", "gate_holds", "taumax_view",
		"|x|_final", "|x|_ungated_pred")
	a.Note = "f(x)=x²/2, σ=0, x₀=1, α=" + report.Fl(alphaA) +
		"; StaleGradient adversary wants τ_adv=" + report.In(tauAdv) +
		"; ungated prediction |(1−α)^τ_adv − α| (Theorem 5.1 regime)"
	ungatedPred := martingale.StaleContraction(alphaA, tauAdv)
	for _, tau := range []int{2, 4, 8, 0} { // 0 = ungated reference
		q, err := grad.NewQuad1D(0, 2)
		if err != nil {
			return nil, err
		}
		res, err := core.RunEpoch(core.EpochConfig{
			Threads: 2, TotalIters: tauAdv + 5, Alpha: alphaA, Oracle: q,
			Policy: &sched.StaleGradient{Victim: 1, DelayIters: tauAdv},
			Seed:   61, X0: vec.Dense{1}, Track: true, StalenessBound: tau,
		})
		if err != nil {
			return nil, err
		}
		meas := contention.MaxAdmissions(res.Windows)
		label, holds := report.In(tau), "-"
		if tau == 0 {
			label = "off"
		} else {
			holds = boolCell(meas <= tau)
		}
		finalAbs := res.FinalX[0]
		if finalAbs < 0 {
			finalAbs = -finalAbs
		}
		a.AddRow(label, report.In(meas), holds,
			report.In(res.Tracker.TauMaxView()),
			report.Fl(finalAbs), report.Fl(ungatedPred))
	}

	// --- (b) convergence vs τ under the max-staleness adversary ----------
	const d = 8
	T := s.pick(800, 8000)
	b := report.New("E16b: convergence vs gate τ, max-stale adversary (machine)",
		"gate_tau", "measured_staleness", "gate_holds", "steps/iter", "final_dist2")
	b.Note = "iso quadratic d=" + report.In(d) + ", 6 threads, MaxStale budget " +
		report.In(s.pick(30, 60)) + "; steps/iter includes gate+publish overhead; " +
		"ordered publication also caps staleness at n−1 in-flight iterations"
	for _, tau := range []int{1, 2, 4, 8, 16, 0} {
		q, x0, err := stdQuadratic(d, 0.3, 4, 1.2)
		if err != nil {
			return nil, err
		}
		res, err := core.RunEpoch(core.EpochConfig{
			Threads: 6, TotalIters: T, Alpha: 0.05, Oracle: q,
			Policy: &sched.MaxStale{Budget: s.pick(30, 60)},
			Seed:   62, X0: x0, StalenessBound: tau,
		})
		if err != nil {
			return nil, err
		}
		d2, err := vec.Dist2Sq(res.FinalX, q.Optimum())
		if err != nil {
			return nil, err
		}
		meas := contention.MaxAdmissions(res.Windows)
		label, holds := report.In(tau), "-"
		if tau == 0 {
			label = "off"
		} else {
			holds = boolCell(meas <= tau)
		}
		b.AddRow(label, report.In(meas), holds,
			report.Fl(float64(res.Stats.Steps)/float64(T)), report.Fl(d2))
	}

	// --- (c) the disciplines on real threads ------------------------------
	// The strategy roster is a sweep spec (one axis, 4 workers): per-cell
	// seeds and pool scheduling come from the engine, and the staleness
	// column reads Result.MaxStaleness — the gauge Run now populates for
	// every StalenessBounded strategy.
	results, err := sweep.Run(sweep.Spec{
		Name:    "e16c-disciplines",
		Seed:    63,
		Oracles: []sweep.Oracle{isoQuadOracle16()},
		Strategies: []sweep.Strategy{
			sweep.LockFree(),
			sweep.BoundedStaleness(2),
			sweep.BoundedStaleness(8),
			sweep.UpdateBatching(8),
			sweep.UpdateBatching(32),
			sweep.EpochFence(64),
			sweep.CoarseLock(),
		},
		Workers: []int{4},
		Alphas:  []float64{0.02},
		Iters:   s.pick(20000, 200000),
		// Throughput column: run cells serially so they never contend.
		MaxConcurrent: 1,
	})
	if err != nil {
		return nil, err
	}
	c := report.New("E16c: synchronization disciplines, real threads",
		"strategy", "updates/sec", "coord_ops/iter", "final_dist2",
		"staleness", "bound_holds")
	c.Note = "iso quadratic d=16, 4 workers; staleness is the gated strategies' observed gauge (sweep engine)"
	for _, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("cell %d (%s): %s", r.Index, r.Strategy, r.Err)
		}
		staleness, holds := "-", "-"
		if r.MaxStaleness >= 0 {
			staleness = report.In(r.MaxStaleness)
			holds = boolCell(r.MaxStaleness <= r.Tau)
		}
		c.AddRow(r.Strategy, report.Fl(r.UpdatesPerSec),
			report.Fl(float64(r.CoordOps)/float64(r.Iters)),
			report.Fl(r.FinalDist2), staleness, holds)
	}
	return []*report.Table{a, b, c}, nil
}
