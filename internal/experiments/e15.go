package experiments

import (
	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/report"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

// E15SparsePipeline exercises the sparse update pipeline end to end and
// records the two claims behind it. (a) Real threads: on a sparse
// workload the sparse lock-free strategy performs O(nnz) shared
// model-coordinate accesses per iteration while every dense strategy
// performs Ω(d), at equal solution quality. (b) Simulator: restricting
// the Ω-overlap of the interval-contention definition to touched
// coordinates — the conflicts the per-coordinate fetch&add semantics
// actually see — collapses the measured contention on sparse gradients,
// while the step count per iteration drops from Θ(d) to Θ(nnz).
func E15SparsePipeline(s Scale) ([]*report.Table, error) {
	gen := rng.New(1151)
	const (
		d    = 48
		keep = 0.15
	)
	ds, err := data.GenLinear(data.LinearConfig{
		Samples: 6 * d, Dim: d, NoiseStd: 0.05,
	}, gen)
	if err != nil {
		return nil, err
	}
	defer ds.Release()
	if err := data.SparsifyRows(ds, keep, gen); err != nil {
		return nil, err
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		return nil, err
	}
	iters := s.pick(6000, 120000)
	// SparsifyRows rescales surviving entries by 1/keep, inflating row
	// norms and hence L; a fixed step diverges, so derive it.
	alpha := 0.5 / sls.Lipschitz()

	a := report.New("E15a: sparse vs dense strategies, real threads",
		"strategy", "iters", "coord_ops/iter", "final_value", "updates/sec")
	a.Note = report.Fl(sls.AvgNNZ()) + " avg nnz per gradient, d=" + report.In(d) +
		"; coord_ops counts shared model reads+writes"
	runs := []struct {
		name string
		cfg  hogwild.Config
	}{
		{"lock-free (dense)", hogwild.Config{Strategy: hogwild.NewLockFree()}},
		{"sparse-lock-free", hogwild.Config{Strategy: hogwild.NewSparseLockFree()}},
		{"coarse-lock", hogwild.Config{Strategy: hogwild.NewCoarseLock()}},
	}
	for _, rn := range runs {
		cfg := rn.cfg
		cfg.Workers = 4
		cfg.TotalIters = iters
		cfg.Alpha = alpha
		cfg.Oracle = sls
		cfg.Seed = 2024
		cfg.X0 = vec.Constant(d, 0.5)
		res, err := hogwild.Run(cfg)
		if err != nil {
			return nil, err
		}
		a.AddRow(rn.name, report.In(res.Iters),
			report.Fl(float64(res.CoordOps)/float64(res.Iters)),
			report.Fl(sls.Value(res.Final)), report.Fl(res.UpdatesPerSec))
	}

	// (b) Simulator: matrix factorization touches 2·rank of (m+n)·rank
	// coordinates per iteration.
	mf, err := grad.NewMatrixFactorization(grad.MFConfig{
		M: 8, N: 8, Rank: 2, ObserveProb: 0.6,
	}, rng.New(17))
	if err != nil {
		return nil, err
	}
	T := s.pick(40, 240)
	b := report.New("E15b: simulated machine, dense vs sparse pipeline",
		"pipeline", "steps/iter", "taumax_interval", "taumax_touched", "tauavg_touched")
	b.Note = "MF 8x8 rank 2 (d=" + report.In(mf.Dim()) + ", nnz=4); 3 threads, max-staleness adversary"
	for _, sparse := range []bool{false, true} {
		res, err := core.RunEpoch(core.EpochConfig{
			Threads: 3, TotalIters: T, Alpha: 0.02, Oracle: mf,
			Policy: &sched.MaxStale{Budget: 6}, Seed: 23,
			X0: mf.InitNear(0.2, rng.New(29)), Track: true, Sparse: sparse,
		})
		if err != nil {
			return nil, err
		}
		name := "dense"
		if sparse {
			name = "sparse"
		}
		tr := res.Tracker
		b.AddRow(name,
			report.Fl(float64(res.Stats.Steps)/float64(T)),
			report.In(contention.TauMax(res.Windows)), report.In(tr.TauMaxTouched()),
			report.Fl(tr.TauAvgTouched()))
	}
	return []*report.Table{a, b}, nil
}
