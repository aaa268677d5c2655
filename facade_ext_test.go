package asyncsgd

import (
	"math"
	"testing"
)

func TestPublicAPIExtensions(t *testing.T) {
	oracle, err := NewIsoQuadratic(2, 1, 0.4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mini-batch shrinks the analytic second moment.
	mb := NewMiniBatch(oracle, 8)
	if mb.Constants().M2 >= oracle.Constants().M2 {
		t.Error("mini-batch did not reduce M²")
	}
	// Momentum + staleness-aware + quantum scheduling all compose.
	res, err := RunEpoch(EpochConfig{
		Threads: 2, TotalIters: 800, Alpha: 0.05, Oracle: mb,
		Policy: &Quantum{Q: 25, R: NewRand(3)},
		Seed:   4, Momentum: 0.3, StalenessEta: 0.5, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ht := res.HitTime(oracle.Optimum(), 0.1); ht < 0 {
		t.Error("extended configuration never converged")
	}
}

// TestPublicAPIDisciplines drives the three synchronization disciplines
// through the facade on both runtimes: the gated strategies report a
// staleness within their bound on real threads, and the machine
// counterparts (EpochConfig.StalenessBound / Batch / FenceEvery) run
// under an adversary with the gate holding.
func TestPublicAPIDisciplines(t *testing.T) {
	oracle, err := NewIsoQuadratic(4, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{
		NewBoundedStalenessStrategy(3),
		NewUpdateBatchingStrategy(8),
		NewEpochFenceStrategy(32),
	}
	for _, strat := range strategies {
		res, err := RunParallel(ParallelConfig{
			Workers: 4, TotalIters: 4000, Alpha: 0.05, Oracle: oracle,
			Seed: 7, Strategy: strat, X0: Dense{1, 1, 1, 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.Iters != 4000 {
			t.Errorf("%s: completed %d iterations", strat.Name(), res.Iters)
		}
		if sb, ok := strat.(StalenessBounded); ok {
			if sb.ObservedMaxStaleness() > sb.TauBound() {
				t.Errorf("%s: staleness %d exceeds bound %d",
					strat.Name(), sb.ObservedMaxStaleness(), sb.TauBound())
			}
		}
	}
	res, err := RunEpoch(EpochConfig{
		Threads: 3, TotalIters: 300, Alpha: 0.05, Oracle: oracle,
		Policy: &MaxStale{Budget: 20}, Seed: 8, StalenessBound: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxAdmissions(res.Windows); got > 3 {
		t.Errorf("machine gate leaked: measured staleness %d > 3", got)
	}
}

func TestPublicAPIParallelFull(t *testing.T) {
	oracle, err := NewIsoQuadratic(2, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallelFull(ParallelFullConfig{
		Workers: 2, Epsilon: 0.1, Alpha0: 0.4, ItersPerEpoch: 1500,
		Oracle: oracle, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDist > 3*math.Sqrt(0.1) {
		t.Errorf("real-thread FullSGD distance %v", res.FinalDist)
	}
	if res.Iters <= 0 || res.CoordOps <= 0 || res.Elapsed <= 0 {
		t.Errorf("FullResult telemetry missing: %d iters, %d ops, %v elapsed",
			res.Iters, res.CoordOps, res.Elapsed)
	}
}

// TestPublicAPISweep drives the scenario-sweep engine through the facade:
// a small τ × workers grid with replicates on the deterministic machine
// runtime, aggregated into per-point Welford statistics.
func TestPublicAPISweep(t *testing.T) {
	quad := SweepOracle{
		Name: "iso-quad",
		Make: func(int, *Rand) (Oracle, Dense, error) {
			o, err := NewIsoQuadratic(6, 1, 0.3, 3, nil)
			if err != nil {
				return nil, nil, err
			}
			return o, Dense{1, 1, 1, 1, 1, 1}, nil
		},
	}
	tau := 2
	results, err := RunSweep(SweepSpec{
		Name:       "facade-smoke",
		Seed:       17,
		Runtimes:   []SweepRuntime{SweepMachine},
		Oracles:    []SweepOracle{quad},
		Strategies: []SweepStrategy{SweepBoundedStaleness(tau)},
		Workers:    []int{1, 3},
		Alphas:     []float64{0.05},
		Replicates: 2,
		Iters:      80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(results))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("cell %d: %s", r.Index, r.Err)
		}
		if r.MaxStaleness > tau {
			t.Errorf("cell %d: staleness %d exceeds τ=%d", r.Index, r.MaxStaleness, tau)
		}
	}
	stats := AggregateSweep(results)
	if len(stats) != 2 {
		t.Fatalf("expected 2 grid points, got %d", len(stats))
	}
	for _, p := range stats {
		if p.N != 2 {
			t.Errorf("point %+v: %d replicates folded, want 2", p.Cell, p.N)
		}
	}
}

func TestPublicAPISparsePipeline(t *testing.T) {
	ds, err := GenLinear(LinearConfig{Samples: 80, Dim: 10, NoiseStd: 0.1}, NewRand(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := SparsifyRows(ds, 0.4, NewRand(22)); err != nil {
		t.Fatal(err)
	}
	sls, err := NewSparseLeastSquares(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := AsSparseOracle(sls); !ok {
		t.Fatal("sparse least squares lost its capability through the facade")
	}
	alpha := 0.5 / sls.Constants().L
	dense, err := RunParallel(ParallelConfig{
		Workers: 2, TotalIters: 4000, Alpha: alpha, Oracle: sls, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := RunParallel(ParallelConfig{
		Workers: 2, TotalIters: 4000, Alpha: alpha, Oracle: sls, Seed: 23,
		Strategy: NewSparseLockFreeStrategy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.CoordOps >= dense.CoordOps {
		t.Errorf("sparse pipeline did not reduce coordinate accesses: %d vs %d",
			sparse.CoordOps, dense.CoordOps)
	}
	if v := sls.Value(sparse.Final); v > 2*sls.Value(dense.Final)+0.1 {
		t.Errorf("sparse solution quality off: %v vs %v",
			v, sls.Value(dense.Final))
	}
	// Every built-in strategy runs through the same entry point. No type
	// outside this module can implement Strategy: its Bind takes the
	// internal *atomicfloat.Vector.
	if _, err := RunParallel(ParallelConfig{
		Workers: 2, TotalIters: 500, Alpha: alpha, Oracle: sls, Seed: 24,
		Strategy: NewCoarseLockStrategy(),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMatrixFactorization(t *testing.T) {
	mf, err := NewMatrixFactorization(MFConfig{
		M: 15, N: 12, Rank: 2, ObserveProb: 0.5,
	}, NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	x0 := mf.InitNear(0.3, NewRand(7))
	before := mf.RMSE(x0)
	res, err := RunParallel(ParallelConfig{
		Workers: 2, TotalIters: 30000, Alpha: 0.05, Oracle: mf,
		Seed: 8, X0: x0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := mf.RMSE(res.Final); after > before/3 {
		t.Errorf("MF RMSE %v -> %v; insufficient progress", before, after)
	}
}
