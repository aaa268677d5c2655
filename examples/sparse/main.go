// Sparse: the sparse update pipeline end to end. Build a least-squares
// problem over sparse feature rows, then minimize it with the dense
// lock-free strategy and the sparse lock-free strategy (O(nnz) shared
// coordinate accesses per iteration), both through the same RunParallel
// entry point. Finally run the sparse pipeline on the simulated
// adversarial machine and report touched-coordinate contention.
package main

import (
	"fmt"
	"os"

	"asyncsgd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sparse:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		d    = 64
		keep = 0.1 // each row keeps ~10% of its entries
	)
	ds, err := asyncsgd.GenLinear(asyncsgd.LinearConfig{
		Samples: 8 * d, Dim: d, NoiseStd: 0.05,
	}, asyncsgd.NewRand(1))
	if err != nil {
		return err
	}
	if err := asyncsgd.SparsifyRows(ds, keep, asyncsgd.NewRand(2)); err != nil {
		return err
	}
	oracle, err := asyncsgd.NewSparseLeastSquares(ds, 4)
	if err != nil {
		return err
	}
	fmt.Printf("sparse least squares: d=%d, %.1f avg nnz per gradient\n",
		d, oracle.AvgNNZ())

	alpha := 0.5 / oracle.Constants().L
	for _, cfg := range []asyncsgd.ParallelConfig{
		{Strategy: asyncsgd.NewLockFreeStrategy()},
		{Strategy: asyncsgd.NewSparseLockFreeStrategy()},
	} {
		cfg.Workers = 4
		cfg.TotalIters = 30000
		cfg.Alpha = alpha
		cfg.Oracle = oracle
		cfg.Seed = 7
		res, err := asyncsgd.RunParallel(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %6.2f coord ops/iter  value %.4f  %8.0f updates/sec\n",
			res.Strategy, float64(res.CoordOps)/float64(res.Iters),
			oracle.Value(res.Final), res.UpdatesPerSec)
	}

	// The same pipeline on the simulated machine, against the budgeted
	// max-staleness adversary, with contention measured on touched
	// coordinates only (the Ω-overlap that per-coordinate fetch&add
	// semantics actually see).
	res, err := asyncsgd.RunEpoch(asyncsgd.EpochConfig{
		Threads: 4, TotalIters: 400, Alpha: alpha, Oracle: oracle,
		Policy: &asyncsgd.MaxStale{Budget: 8}, Seed: 3,
		Sparse: true, Track: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("simulator (sparse): %.1f steps/iter, interval τmax=%d, touched τmax=%d\n",
		float64(res.Stats.Steps)/400, asyncsgd.TauMax(res.Windows), res.Tracker.TauMaxTouched())
	return nil
}
