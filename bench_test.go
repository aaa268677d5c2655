package asyncsgd

// Benchmark harness: one testing.B benchmark per reproduced experiment
// (see DESIGN.md §3 for the experiment↔result index) plus microbenchmarks
// for the substrates. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the Quick-scale drivers — the same
// code that regenerates the paper's tables — so their wall time is the
// cost of reproducing each result. cmd/asgdbench runs the Full scale.

import (
	"io"
	"sync"
	"testing"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/baseline"
	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/data"
	"asyncsgd/internal/experiments"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, experiments.Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1SequentialBound regenerates Theorem 3.1 (sequential failure
// probability vs bound).
func BenchmarkE1SequentialBound(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkE2LowerBound regenerates Section 5 / Theorem 5.1 (adversarial
// delay lower bound and merged-noise variance).
func BenchmarkE2LowerBound(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkE3BadIterations regenerates Lemma 6.2.
func BenchmarkE3BadIterations(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkE4DelaySum regenerates Lemma 6.4.
func BenchmarkE4DelaySum(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkE5UpperBound regenerates Theorem 6.5 / Corollary 6.7 (the
// paper's main upper bound and the √(τmax·n) scaling).
func BenchmarkE5UpperBound(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkE6FullSGD regenerates Corollary 7.1 (Algorithm 2).
func BenchmarkE6FullSGD(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkE7AvgContention regenerates the τavg ≤ 2n claim.
func BenchmarkE7AvgContention(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkE8Tradeoff regenerates the Section-8 step-size/delay trade-off.
func BenchmarkE8Tradeoff(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9ViewConsistency regenerates Figure 1 and the Lemma 6.1
// invariants.
func BenchmarkE9ViewConsistency(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkE10Throughput regenerates the real-thread throughput table.
func BenchmarkE10Throughput(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkE11SparsityAblation regenerates the dense vs single-non-zero
// gradient ablation (the assumption the paper removes).
func BenchmarkE11SparsityAblation(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkE12Momentum regenerates the §8 momentum-under-delay extension.
func BenchmarkE12Momentum(b *testing.B) { benchExperiment(b, "e12") }

// BenchmarkE13StalenessAware regenerates the staleness-aware mitigation
// vs adaptive adversary extension.
func BenchmarkE13StalenessAware(b *testing.B) { benchExperiment(b, "e13") }

// BenchmarkE15SparsePipeline regenerates the sparse-vs-dense update
// pipeline comparison (O(nnz) work, touched-coordinate contention).
func BenchmarkE15SparsePipeline(b *testing.B) { benchExperiment(b, "e15") }

// BenchmarkE16StalenessGate regenerates the staleness-gate experiment
// (capping the Section-5 adversary's τ at runtime).
func BenchmarkE16StalenessGate(b *testing.B) { benchExperiment(b, "e16") }

// BenchmarkE17PhaseDiagram regenerates the staleness phase diagram (the
// sweep engine over a τ × workers × sparsity × replicates grid on both
// runtimes).
func BenchmarkE17PhaseDiagram(b *testing.B) { benchExperiment(b, "e17") }

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

// BenchmarkContentionTracker measures the tracker's record path — one
// Observe call per simulated shared-memory step — in steady state, i.e.
// reusing the tracker across epochs via Reset so the iter-record pool and
// the per-thread dense iteration tables are warm. Run with -benchmem: the
// point of the dense tables and the record pool is the 0 B/op column.
func BenchmarkContentionTracker(b *testing.B) {
	const threads, d = 4, 8
	tr := contention.NewTracker(d)
	epoch := func(iters int) {
		time := 0
		for it := 0; it < iters; it++ {
			for th := 0; th < threads; th++ {
				time++
				tr.Observe(th, contention.Tag{Thread: th, Iter: it, Role: contention.RoleCounter}, time)
				for c := 0; c < d; c++ {
					time++
					tr.Observe(th, contention.Tag{Thread: th, Iter: it, Role: contention.RoleRead, Coord: c}, time)
				}
				for c := 0; c < d; c++ {
					time++
					tr.Observe(th, contention.Tag{
						Thread: th, Iter: it, Role: contention.RoleUpdate, Coord: c,
						First: c == 0, Last: c == d-1,
					}, time)
				}
			}
		}
	}
	const itersPerEpoch = 100
	epoch(itersPerEpoch) // warm the pool and tables
	tr.Reset(d)
	stepsPerEpoch := itersPerEpoch * threads * (1 + 2*d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch(itersPerEpoch)
		tr.Reset(d)
	}
	b.ReportMetric(float64(stepsPerEpoch)*float64(b.N)/b.Elapsed().Seconds(), "observes/sec")
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
		func() hogwild.Strategy { return hogwild.NewStripedLock(0) },
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
