package asyncsgd_test

import (
	"context"
	"fmt"

	"asyncsgd"
)

// The quickstart: minimize a strongly convex quadratic with lock-free
// SGD on the deterministic simulated shared-memory machine, under the
// budgeted max-staleness adversary, using the paper's Corollary-6.7 step
// size. Machine runs are bit-reproducible, so the measured contention is
// part of the expected output.
func ExampleRunEpoch() {
	oracle, err := asyncsgd.NewIsoQuadratic(4, 1, 0.4, 3, nil)
	if err != nil {
		panic(err)
	}
	const (
		eps     = 0.25 // success region ‖x−x*‖² ≤ ε
		threads = 3
		T       = 2000
	)
	alpha := asyncsgd.AlphaAsync(oracle.Constants(), eps, 1, 12, threads, 4)

	x0 := asyncsgd.NewDense(4)
	x0.Fill(0.5)
	res, err := asyncsgd.RunEpoch(asyncsgd.EpochConfig{
		Threads:    threads,
		TotalIters: T,
		Alpha:      alpha,
		Oracle:     oracle,
		Policy:     &asyncsgd.MaxStale{Budget: 8},
		Seed:       1,
		X0:         x0,
		Record:     true,
	})
	if err != nil {
		panic(err)
	}
	hit := res.HitTime(oracle.Optimum(), eps)
	fmt.Printf("hit success region by iteration %d: %v\n", T, hit > 0)
	fmt.Printf("measured tau_max = %d\n", asyncsgd.TauMax(res.Windows))
	// Output:
	// hit success region by iteration 2000: true
	// measured tau_max = 10
}

// Capping the Section-5 adversary at runtime: the bounded-staleness
// discipline guarantees no iteration begins while one more than τ
// tickets older is in flight, on real goroutines. A single worker keeps
// the run bit-reproducible for the example.
func ExampleNewBoundedStalenessStrategy() {
	oracle, err := asyncsgd.NewIsoQuadratic(4, 1, 0.3, 3, nil)
	if err != nil {
		panic(err)
	}
	const tau = 2
	res, err := asyncsgd.RunParallel(asyncsgd.ParallelConfig{
		Workers:    1,
		TotalIters: 500,
		Alpha:      0.05,
		Oracle:     oracle,
		Seed:       7,
		Strategy:   asyncsgd.NewBoundedStalenessStrategy(tau),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("strategy: %s\n", res.Strategy)
	fmt.Printf("observed max staleness %d <= tau %d: %v\n",
		res.MaxStaleness, tau, res.MaxStaleness <= tau)
	// Output:
	// strategy: bounded-staleness
	// observed max staleness 0 <= tau 2: true
}

// A small deterministic scenario sweep: one oracle family crossed with a
// gated discipline on the simulated machine, two seed replicates per
// point, executed on the weighted pool. Per-cell seeds split from the
// cell coordinates, so the outcome is independent of pool interleaving.
func ExampleRunSweep() {
	results, err := asyncsgd.RunSweep(asyncsgd.SweepSpec{
		Name:     "example",
		Seed:     42,
		Runtimes: []asyncsgd.SweepRuntime{asyncsgd.SweepMachine},
		Oracles: []asyncsgd.SweepOracle{{
			Name: "iso-quad",
			Make: func(d int, _ *asyncsgd.Rand) (asyncsgd.Oracle, asyncsgd.Dense, error) {
				o, err := asyncsgd.NewIsoQuadratic(d, 1, 0.3, 3, nil)
				x0 := asyncsgd.NewDense(d)
				x0.Fill(0.5)
				return o, x0, err
			},
		}},
		Strategies: []asyncsgd.SweepStrategy{asyncsgd.SweepBoundedStaleness(2)},
		Workers:    []int{3},
		Dims:       []int{6},
		Alphas:     []float64{0.1},
		Replicates: 2,
		Iters:      200,
	})
	if err != nil {
		panic(err)
	}
	stats := asyncsgd.AggregateSweep(results)
	p := stats[0]
	fmt.Printf("cells: %d, points: %d\n", len(results), len(stats))
	fmt.Printf("replicates folded: %d, staleness %d <= tau %d: %v\n",
		p.N, p.MaxStaleness, p.Cell.Tau, p.MaxStaleness <= p.Cell.Tau)
	// Output:
	// cells: 2, points: 1
	// replicates folded: 2, staleness 2 <= tau 2: true
}

// The sweep service pipeline in process: a SweepRequest (the JSON body
// of POST /v1/sweeps) executed directly, streaming per-cell results and
// returning the asgdbench/v2 document — the same pipeline an asgdserve
// job runs, byte-identical to `asgdbench sweep -json` for equal specs.
func ExampleRunSweepRequest() {
	seed := uint64(9)
	adversary := 6
	report, err := asyncsgd.RunSweepRequest(context.Background(), asyncsgd.SweepRequest{
		Taus:       []int{1, 4},
		Workers:    []int{2},
		Sparsity:   []float64{0.5},
		Dim:        8,
		Replicates: 2,
		Iters:      60,
		Seed:       &seed,
		Adversary:  &adversary,
		Runtime:    "machine",
	}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("schema: %s\n", report.Schema)
	fmt.Printf("sweep %q ran %d cells, %d failed\n",
		report.Sweep.Name, report.Sweep.Cells, report.FailedCells())
	// Output:
	// schema: asgdbench/v2
	// sweep "staleness-phase-diagram/machine" ran 4 cells, 0 failed
}
