package asyncsgd

// Benchmark harness: the sweep engine and microbenchmarks for the
// substrates. Run:
//
//	go test -bench=. -benchmem
//
// The paper's tables are regenerated by cmd/asgdbench; the end-to-end
// ledger is `bash benchmark/run.sh`.

import (
	"sync"
	"testing"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/baseline"
	"asyncsgd/internal/core"
	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

// BenchmarkSweepMachineGrid measures the sweep engine proper: one op is a
// 24-cell deterministic machine grid (2 τ × 2 threads × 3 replicates ×
// 2 oracles) through expansion, the weighted pool, and aggregation —
// the per-cell overhead the engine adds on top of the runtimes.
func BenchmarkSweepMachineGrid(b *testing.B) {
	quad := SweepOracle{
		Name: "iso-quad",
		Make: func(int, *Rand) (Oracle, Dense, error) {
			o, err := NewIsoQuadratic(8, 1, 0.3, 3, nil)
			if err != nil {
				return nil, nil, err
			}
			return o, NewDense(8), nil
		},
	}
	noisy := quad
	noisy.Name = "iso-quad-noisy"
	spec := SweepSpec{
		Name:     "bench",
		Seed:     12,
		Runtimes: []SweepRuntime{SweepMachine},
		Oracles:  []SweepOracle{quad, noisy},
		Strategies: []SweepStrategy{{
			Name:    "bounded-staleness/tau=2",
			Machine: func(cfg *EpochConfig) { cfg.StalenessBound = 2 },
			Tau:     2,
		}, {
			Name:    "lock-free",
			Machine: func(*EpochConfig) {},
		}},
		Workers:    []int{1, 3},
		Alphas:     []float64{0.05},
		Replicates: 3,
		Iters:      50,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := RunSweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(AggregateSweep(results)) == 0 {
			b.Fatal("no aggregated points")
		}
	}
}

// --- substrate microbenchmarks -------------------------------------------

// BenchmarkMachineStep measures the simulated shared-memory machine's cost
// per scheduled step (state-machine workers, round-robin policy).
func BenchmarkMachineStep(b *testing.B) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	const iters = 2000
	stepsPerRun := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunEpoch(core.EpochConfig{
			Threads: 4, TotalIters: iters, Alpha: 0.05, Oracle: q,
			Policy: &sched.RoundRobin{}, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		stepsPerRun = res.Stats.Steps
	}
	b.ReportMetric(float64(stepsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkMachineStepAdversarial is BenchmarkMachineStep under the
// max-staleness adversary (the policy does tag inspection per step).
func BenchmarkMachineStepAdversarial(b *testing.B) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunEpoch(core.EpochConfig{
			Threads: 4, TotalIters: 2000, Alpha: 0.05, Oracle: q,
			Policy: &sched.MaxStale{Budget: 8}, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialSGD is the pure-Go baseline iteration cost, the
// denominator of the simulator's modelling overhead.
func BenchmarkSequentialSGD(b *testing.B) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.RunSequential(baseline.SeqConfig{
			Oracle: q, Alpha: 0.05, Iters: 2000, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAtomicFloatFetchAdd measures the CAS-loop float fetch&add,
// packed vs cache-line-padded layout, uncontended and contended — the
// ablation for the paper's fetch&add primitive on real hardware.
func BenchmarkAtomicFloatFetchAdd(b *testing.B) {
	layouts := map[string]atomicfloat.Layout{
		"packed": atomicfloat.Packed,
		"padded": atomicfloat.Padded,
	}
	for name, layout := range layouts {
		b.Run(name+"/uncontended", func(b *testing.B) {
			v := atomicfloat.New(16, layout)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.FetchAdd(i&15, 1)
			}
		})
		b.Run(name+"/contended", func(b *testing.B) {
			v := atomicfloat.New(16, layout)
			var wg sync.WaitGroup
			const workers = 4
			b.ResetTimer()
			per := b.N / workers
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						v.FetchAdd((i+w)&15, 1)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkSnapshot measures the bulk view-read paths of the atomic
// vector: LoadAll (the dense steppers' per-iteration snapshot) and
// GatherInto (the sparse steppers' support gather), packed vs padded
// layout. Run with -benchmem; all paths are allocation-free.
func BenchmarkSnapshot(b *testing.B) {
	const d = 256
	layouts := map[string]atomicfloat.Layout{
		"packed": atomicfloat.Packed,
		"padded": atomicfloat.Padded,
	}
	idx := make([]int, 0, d/8)
	for j := 3; j < d; j += 8 {
		idx = append(idx, j)
	}
	for name, layout := range layouts {
		v := atomicfloat.New(d, layout)
		b.Run(name+"/loadall", func(b *testing.B) {
			dst := make([]float64, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.LoadAll(dst)
			}
		})
		b.Run(name+"/gather32", func(b *testing.B) {
			dst := make([]float64, len(idx))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.GatherInto(dst, idx)
			}
		})
	}
}

// BenchmarkHogwildModes measures end-to-end updates/sec of the real-thread
// runtime per synchronization mode.
func BenchmarkHogwildModes(b *testing.B) {
	q, err := grad.NewIsoQuadratic(16, 1, 0.3, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, mk := range []func() hogwild.Strategy{
		hogwild.NewLockFree, hogwild.NewCoarseLock,
	} {
		b.Run(mk().Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hogwild.Run(hogwild.Config{
					Workers: 4, TotalIters: 20000, Alpha: 0.02,
					Oracle: q, Seed: uint64(i), Strategy: mk(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseVsDense compares the dense and sparse lock-free
// strategies on a genuinely sparse workload: least squares whose rows
// keep ~5% of d = 256 coordinates. The dense path scans the model every
// iteration (Ω(d) shared coordinate accesses); the sparse path touches
// only each gradient's support (O(nnz)). The coord_ops/iter metric makes
// the gap visible next to the ns/op column.
func BenchmarkSparseVsDense(b *testing.B) {
	gen := rng.New(404)
	const d = 256
	ds, err := data.GenLinear(data.LinearConfig{Samples: 4 * d, Dim: d, NoiseStd: 0.05}, gen)
	if err != nil {
		b.Fatal(err)
	}
	if err := data.SparsifyRows(ds, 0.05, gen); err != nil {
		b.Fatal(err)
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		b.Fatal(err)
	}
	alpha := 0.5 / sls.Constants().L
	for _, mk := range []func() hogwild.Strategy{hogwild.NewLockFree, hogwild.NewSparseLockFree} {
		b.Run(mk().Name(), func(b *testing.B) {
			var coordOps, iters int64
			for i := 0; i < b.N; i++ {
				res, err := hogwild.Run(hogwild.Config{
					Workers: 4, TotalIters: 20000, Alpha: alpha,
					Oracle: sls, Seed: uint64(i), Strategy: mk(),
				})
				if err != nil {
					b.Fatal(err)
				}
				coordOps += res.CoordOps
				iters += int64(res.Iters)
			}
			b.ReportMetric(float64(coordOps)/float64(iters), "coord_ops/iter")
		})
	}
}

// BenchmarkBatchingVsLockFree compares end-to-end throughput of the
// plain lock-free strategy against update batching across batch sizes:
// batching trades per-update freshness for ~b× less shared write traffic,
// so updates/sec and coord_ops/iter move together. Both dense (snapshot
// reads dominate) and sparse (writes dominate) workloads are measured —
// the sparse case is where batching's traffic cut shows up as throughput.
func BenchmarkBatchingVsLockFree(b *testing.B) {
	gen := rng.New(808)
	const d = 256
	ds, err := data.GenLinear(data.LinearConfig{Samples: 4 * d, Dim: d, NoiseStd: 0.05}, gen)
	if err != nil {
		b.Fatal(err)
	}
	if err := data.SparsifyRows(ds, 0.05, gen); err != nil {
		b.Fatal(err)
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		b.Fatal(err)
	}
	quad, err := grad.NewIsoQuadratic(64, 1, 0.3, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	workloads := []struct {
		name   string
		oracle grad.Oracle
		alpha  float64
	}{
		{"dense64", quad, 0.02},
		{"sparse256", sls, 0.5 / sls.Constants().L},
	}
	strategies := []struct {
		name string
		mk   func() hogwild.Strategy
	}{
		{"lock-free", hogwild.NewLockFree},
		{"batch8", func() hogwild.Strategy { return hogwild.NewUpdateBatching(8) }},
		{"batch64", func() hogwild.Strategy { return hogwild.NewUpdateBatching(64) }},
	}
	for _, wl := range workloads {
		for _, st := range strategies {
			b.Run(wl.name+"/"+st.name, func(b *testing.B) {
				var coordOps, iters int64
				for i := 0; i < b.N; i++ {
					res, err := hogwild.Run(hogwild.Config{
						Workers: 4, TotalIters: 20000, Alpha: wl.alpha,
						Oracle: wl.oracle, Seed: uint64(i), Strategy: st.mk(),
					})
					if err != nil {
						b.Fatal(err)
					}
					coordOps += res.CoordOps
					iters += int64(res.Iters)
				}
				b.ReportMetric(float64(coordOps)/float64(iters), "coord_ops/iter")
			})
		}
	}
}

// BenchmarkRNG measures the PRNG primitives used on every SGD iteration.
func BenchmarkRNG(b *testing.B) {
	r := rng.New(1)
	b.Run("uint64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = r.Uint64()
		}
	})
	b.Run("normal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = r.Normal()
		}
	})
	b.Run("intn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = r.Intn(1000)
		}
	})
}

// BenchmarkVecOps measures the vector kernels on the SGD hot path.
func BenchmarkVecOps(b *testing.B) {
	x := vec.Constant(64, 1.5)
	y := vec.Constant(64, -0.5)
	b.Run("axpy64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.AddScaled(1e-9, y)
		}
	})
	b.Run("norm2sq64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.Norm2Sq()
		}
	})
	b.Run("dot64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = vec.MustDot(x, y)
		}
	})
}

// BenchmarkOracleGrad measures stochastic-gradient sampling cost per
// oracle family.
func BenchmarkOracleGrad(b *testing.B) {
	r := rng.New(5)
	quad, err := grad.NewIsoQuadratic(16, 1, 0.3, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	oracles := map[string]grad.Oracle{
		"quadratic16": quad,
		"single16":    grad.NewSingleCoordinate(quad),
	}
	for name, o := range oracles {
		b.Run(name, func(b *testing.B) {
			x := vec.Constant(o.Dim(), 0.5)
			g := vec.NewDense(o.Dim())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Grad(g, x, r)
			}
		})
	}
}
