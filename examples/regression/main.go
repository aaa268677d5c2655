// Regression: train linear least squares on a synthetic dataset with the
// real-goroutine Hogwild runtime (lock-free, CAS-emulated fetch&add) and
// compare throughput and solution quality against the coarse-lock
// baseline — the practical story of the paper's Section 8. The analytic
// constants (c, L, M²) are derived from the data via the Gram matrix
// eigenvalues, and the step size follows Corollary 6.7.
package main

import (
	"fmt"
	"os"

	"asyncsgd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "regression:", err)
		os.Exit(1)
	}
}

func run() error {
	// Synthetic regression data: 2000 samples, 16 features, mild noise,
	// condition number ≈ 9.
	ds, err := asyncsgd.GenLinear(asyncsgd.LinearConfig{
		Samples:  2000,
		Dim:      16,
		NoiseStd: 0.2,
		CondExp:  3,
	}, asyncsgd.NewRand(7))
	if err != nil {
		return err
	}
	oracle, err := asyncsgd.NewLeastSquares(ds, 2)
	if err != nil {
		return err
	}
	cst := oracle.Constants()
	fmt.Printf("dataset: m=%d d=%d;  derived constants: c=%.4f L=%.2f M²=%.1f\n",
		ds.Len(), ds.Dim(), cst.C, cst.L, cst.M2)

	const (
		eps   = 0.05
		iters = 60000
	)
	// The Corollary-6.7 step size is a worst-case guarantee against an
	// adaptive adversary; real schedulers are benign (§8 of the paper),
	// so the demo uses the practical 1/(2L) rate and prints both.
	worstCase := asyncsgd.AlphaAsync(cst, eps, 1, 32, 4, ds.Dim())
	alpha := 0.5 / cst.L
	fmt.Printf("step size: practical α = %.5f (worst-case Corollary-6.7 α = %.2e)\n\n",
		alpha, worstCase)

	fmt.Printf("%-12s %8s %14s %12s %14s\n",
		"mode", "workers", "updates/sec", "‖x−x*‖²", "τavg")
	for _, cfg := range []asyncsgd.ParallelConfig{
		// The lock-free arm measures throughput: pad out false sharing.
		{Strategy: asyncsgd.NewLockFreeStrategy(), Padded: true},
		{Strategy: asyncsgd.NewCoarseLockStrategy()},
	} {
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			cfg.TotalIters = iters
			cfg.Alpha = alpha
			cfg.Oracle = oracle
			cfg.Seed = 3
			cfg.SampleStaleness = true
			res, err := asyncsgd.RunParallel(cfg)
			if err != nil {
				return err
			}
			var d2 float64
			xstar := oracle.Optimum()
			for j := range res.Final {
				dlt := res.Final[j] - xstar[j]
				d2 += dlt * dlt
			}
			fmt.Printf("%-12s %8d %14.0f %12.5f %14.2f\n",
				res.Strategy, workers, res.UpdatesPerSec, d2, res.AvgStaleness)
		}
	}
	fmt.Println("\nOn a multi-core host the lock-free rows scale with workers while")
	fmt.Println("coarse locking serializes; on a single core the gap is the lock")
	fmt.Println("overhead only (see EXPERIMENTS.md for the recorded shape claims).")
	return nil
}
