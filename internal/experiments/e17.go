package experiments

import (
	"asyncsgd/internal/mathx"
	"asyncsgd/internal/report"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// runPhaseLeg expands a single-runtime phase-diagram request, runs it on
// the sweep engine and folds the replicates into grid points.
func runPhaseLeg(q serve.SweepRequest) ([]sweep.PointStat, error) {
	specs, err := q.Specs()
	if err != nil {
		return nil, err
	}
	res, err := sweep.Run(specs[0])
	if err != nil {
		return nil, err
	}
	return sweep.Aggregate(res), nil
}

// E17PhaseDiagram is the staleness phase diagram of Theorem 6.5's
// parameters: final loss and observed maximum staleness over a
// bounded-staleness τ × workers × sparsity grid, on both runtimes,
// executed by the internal/sweep engine with ≥2 seed replicates per
// point. The machine leg runs under the budgeted max-staleness adversary,
// so the gate is actually contested: observed staleness must track
// min(τ, what the adversary can inject) and loss must degrade as the
// gate loosens. The marginal table collapses each τ across the
// workers × sparsity plane (Welford merges), the phase-diagram row of the
// paper's convergence-vs-delay story.
func E17PhaseDiagram(s Scale) ([]*report.Table, error) {
	seed := uint64(1701)
	// The budget scales with the iteration count so the adversary's
	// injectable delay stays a constant fraction of the run.
	adversary := s.pick(24, 200)
	mo := serve.SweepRequest{
		Runtime:    "machine",
		Taus:       []int{1, 2, 4, 8},
		Workers:    []int{2, 3},
		Sparsity:   []float64{0.2, 0.6},
		Dim:        s.pick(24, 32),
		Replicates: s.pick(2, 3),
		Iters:      s.pick(150, 1500),
		Seed:       &seed,
		Adversary:  &adversary,
	}
	if s == Full {
		// Workers beyond τ+1 matter: in-flight iterations are capped at
		// min(τ+1, n), so observed staleness is min(τ, n−1) — the full grid
		// includes n=6 so every τ ≤ 5 actually binds.
		mo.Workers = []int{2, 4, 6}
		mo.Sparsity = []float64{0.15, 0.4}
	}
	mstats, err := runPhaseLeg(mo)
	if err != nil {
		return nil, err
	}
	mt := sweep.Table("E17a: staleness phase diagram, simulated machine", mstats)
	mt.Note = "bounded-staleness τ × threads × sparsity, MaxStale adversary budget " +
		report.In(adversary) + ", " + report.In(mo.Replicates) + " replicates/point"

	ho := mo
	ho.Runtime = "hogwild"
	ho.Workers = []int{2, 4}
	ho.Iters = s.pick(3000, 30000)
	if s == Full {
		ho.Workers = []int{1, 2, 4}
	}
	hstats, err := runPhaseLeg(ho)
	if err != nil {
		return nil, err
	}
	ht := sweep.Table("E17b: staleness phase diagram, real threads", hstats)
	ht.Note = "same grid on goroutines; observed staleness is the gated strategies' exact gauge " +
		"(single-core hosts compress the shape)"

	// τ marginals: collapse the workers × sparsity plane per gate value on
	// each runtime — the loss-vs-τ curve the phase diagram is sliced from.
	marg := report.New("E17c: τ marginals (collapsed over workers × sparsity)",
		"runtime", "gate_tau", "points", "loss_mean", "loss_std", "stale_max", "bound_holds")
	for _, leg := range []struct {
		name  string
		stats []sweep.PointStat
	}{
		{"machine", mstats},
		{"hogwild", hstats},
	} {
		for _, tau := range mo.Taus {
			var loss mathx.Welford
			points, staleMax := 0, -1
			for i := range leg.stats {
				p := &leg.stats[i]
				if p.Cell.Tau != tau {
					continue
				}
				points++
				loss.Merge(p.Loss)
				if p.MaxStaleness > staleMax {
					staleMax = p.MaxStaleness
				}
			}
			marg.AddRow(leg.name, report.In(tau), report.In(points),
				report.Fl(loss.Mean()), report.Fl(loss.Std()),
				report.In(staleMax), boolCell(staleMax <= tau))
		}
	}
	return []*report.Table{mt, ht, marg}, nil
}
