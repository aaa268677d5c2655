// Matrixfactor: the classic non-convex Hogwild workload — low-rank matrix
// completion with sparse stochastic gradients (each update touches only
// the 2r coordinates of one observed entry). This is the sparse-update
// regime the paper's introduction motivates, where lock-free SGD gives
// near-linear parallel speedups in practice; it sits outside the convex
// theory (strong convexity c = 0) and shows the library's oracles are not
// limited to the analyzed setting.
package main

import (
	"fmt"
	"os"

	"asyncsgd"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "matrixfactor:", err)
		os.Exit(1)
	}
}

func run() error {
	mf, err := grad.NewMatrixFactorization(grad.MFConfig{
		M: 60, N: 50, Rank: 5, ObserveProb: 0.3, NoiseStd: 0.01,
	}, rng.New(3))
	if err != nil {
		return err
	}
	fmt.Printf("completion problem: %d×%d rank-%d, %d observed entries, %d parameters\n",
		60, 50, 5, mf.Observations(), mf.Dim())

	x0 := mf.InitNear(0.3, rng.New(4))
	fmt.Printf("initial RMSE: %.4f\n\n", mf.RMSE(x0))

	fmt.Printf("%-12s %8s %14s %10s\n", "mode", "workers", "updates/sec", "RMSE")
	for _, strategy := range []func() asyncsgd.Strategy{asyncsgd.NewLockFreeStrategy, asyncsgd.NewCoarseLockStrategy} {
		for _, workers := range []int{1, 4} {
			res, err := asyncsgd.RunParallel(asyncsgd.ParallelConfig{
				Workers:    workers,
				TotalIters: 150000,
				Alpha:      0.05,
				Oracle:     mf,
				Seed:       9,
				Strategy:   strategy(),
				X0:         x0,
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %8d %14.0f %10.4f\n",
				res.Strategy, workers, res.UpdatesPerSec, mf.RMSE(res.Final))
		}
	}
	fmt.Println("\nWith 2r-sparse updates, concurrent lock-free writers rarely")
	fmt.Println("collide on a coordinate — the Hogwild sweet spot (§8: gradients")
	fmt.Println("are often sparse, so the effective d in the bound is small).")
	return nil
}
