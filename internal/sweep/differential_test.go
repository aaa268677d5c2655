package sweep

import (
	"errors"
	"math"
	"slices"
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// The differential suite: the simulated machine (internal/core over
// internal/shm) and the real-goroutine runtime (internal/hogwild) run the
// same Algorithm 1 under the same disciplines, so sweep's strategy roster
// pairs each discipline with both. These tests run the roster's pairings
// through hogwildConfig and machineConfig, the configs every sweep cell
// runs with, and check the invariants that tie the runtimes together:
//
//   - Seeded one-worker runs are deterministic and agree bit for bit:
//     the same final model, and equal coordinate-op counts
//     (hogwild.Result.CoordOps vs core.EpochResult.CoordOps).
//   - Multi-worker runs are only statistically comparable: both runtimes
//     reach the oracle's optimum within a stated tolerance.
//   - For gated disciplines, the staleness respects Strategy.Tau on both
//     runtimes (the hogwild gauge; contention.MaxAdmissions over the
//     machine's windows).
//   - τavg over both runtimes' windows obeys the paper's τavg ≤ 2n (on the
//     machine, when every claimed iteration recorded its end).
//   - Both runtimes reject a capability mismatch and negative parameters.

// denseOracle is the dense differential workload: an isotropic quadratic
// with no sparse capability.
func denseOracle() (grad.Oracle, error) {
	return grad.NewIsoQuadratic(8, 1, 0.2, 4, nil)
}

// sparseOracle is the sparse differential workload: least squares over
// rows thinned to ~15% density (both a dense Grad and the
// PlanSparse/GradSparseAt capability).
func sparseOracle() (grad.Oracle, error) {
	gen := rng.New(9091)
	ds, err := data.GenLinear(data.LinearConfig{Samples: 160, Dim: 32, NoiseStd: 0.05}, gen)
	if err != nil {
		return nil, err
	}
	if err := data.SparsifyRows(ds, 0.15, gen); err != nil {
		return nil, err
	}
	return grad.NewSparseLeastSquares(ds, 4)
}

// sparseLockFree pairs hogwild's sparse lock-free strategy with the
// machine's sparse pipeline; it needs a grad.SparseOracle on both sides.
var sparseLockFree = Strategy{
	Name:    "sparse-lock-free",
	Hogwild: hogwild.NewSparseLockFree,
	Machine: func(cfg *core.EpochConfig) { cfg.Sparse = true },
}

// diffRoster is sweep's roster at the suite's parameters, plus the
// sparse-lock-free pairing.
func diffRoster() []Strategy {
	return []Strategy{
		LockFree(), CoarseLock(), StripedLock(8), sparseLockFree,
		BoundedStaleness(4), UpdateBatching(8), EpochFence(16),
	}
}

const (
	diffSeed    = 1234 // the seed both runtimes' cells share
	diffWorkers = 4    // real-thread worker count of the statistical leg
	diffThreads = 3    // machine thread count of the statistical leg
)

// diffCell is a cell of strategy st with an explicit seed, so that both
// runtimes' cells share it.
func diffCell(st *Strategy, workers int, alpha float64, seed uint64) Cell {
	return Cell{Strategy: st.Name, Tau: st.Tau, Workers: workers, Alpha: alpha, Seed: seed, strategy: st}
}

// runHogwildCell runs a cell on real threads with the config its adapter
// builds.
func runHogwildCell(t *testing.T, s *Spec, c Cell, o grad.Oracle, x0 vec.Dense) (*hogwild.Result, error) {
	t.Helper()
	cfg, err := hogwildConfig(s, c, o, x0)
	if err != nil {
		t.Fatal(err)
	}
	return hogwild.Run(cfg)
}

// runMachineCell runs a cell on the machine with the config its adapter
// builds.
func runMachineCell(t *testing.T, s *Spec, c Cell, o grad.Oracle, x0 vec.Dense) (*core.EpochResult, error) {
	t.Helper()
	cfg, err := machineConfig(s, c, o, x0)
	if err != nil {
		t.Fatal(err)
	}
	return core.RunEpoch(cfg)
}

// runPair runs st on both runtimes, each over a fresh oracle from mk
// started at x₀ = 0.5·1, with the given parallelism.
func runPair(t *testing.T, s *Spec, st *Strategy, mk func() (grad.Oracle, error),
	workers, threads int, alpha float64) (*hogwild.Result, *core.EpochResult) {
	t.Helper()
	oh, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	hog, err := runHogwildCell(t, s, diffCell(st, workers, alpha, diffSeed), oh, vec.Constant(oh.Dim(), 0.5))
	if err != nil {
		t.Fatalf("hogwild: %v", err)
	}
	om, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := runMachineCell(t, s, diffCell(st, threads, alpha, diffSeed), om, vec.Constant(om.Dim(), 0.5))
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return hog, sim
}

// checkRejected asserts that both runtimes reject st over o with
// hogwild.ErrBadConfig and core.ErrBadConfig, rather than silently
// diverging.
func checkRejected(t *testing.T, st *Strategy, o grad.Oracle, iters int, alpha float64) {
	t.Helper()
	s := &Spec{Iters: iters}
	c := diffCell(st, 2, alpha, 17)
	if _, err := runHogwildCell(t, s, c, o, nil); !errors.Is(err, hogwild.ErrBadConfig) {
		t.Errorf("%s: real-thread runtime accepted an invalid config: %v", st.Name, err)
	}
	if _, err := runMachineCell(t, s, c, o, nil); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("%s: machine accepted an invalid config: %v", st.Name, err)
	}
}

// TestDifferentialAllStrategies is the acceptance matrix: the roster ×
// {dense, sparse} oracle, each run on both runtimes with the full
// invariant set.
func TestDifferentialAllStrategies(t *testing.T) {
	oracles := []struct {
		name   string
		mk     func() (grad.Oracle, error)
		sparse bool
		alpha  float64
		iters  int
		tol    float64
	}{
		// Tolerances sit ~20× above the measured lock-free dist² at these
		// budgets (x₀ starts at dist² 2 resp. 8), so they catch divergence
		// and lost updates without flaking on scheduler noise.
		{"dense-quadratic", denseOracle, false, 0.05, 3000, 0.5},
		{"sparse-leastsq", sparseOracle, true, 0.002, 2500, 0.5},
	}
	for _, oc := range oracles {
		for _, st := range diffRoster() {
			t.Run(oc.name+"/"+st.Name, func(t *testing.T) {
				if st.Name == sparseLockFree.Name && !oc.sparse {
					o, err := oc.mk()
					if err != nil {
						t.Fatal(err)
					}
					checkRejected(t, &st, o, 100, oc.alpha)
					return
				}
				s := &Spec{Iters: oc.iters, Probe: true}

				// Deterministic leg: one worker, bit-exact agreement.
				hog, sim := runPair(t, s, &st, oc.mk, 1, 1, oc.alpha)
				if sim.Stats.Stalled > 0 {
					t.Fatal("machine stalled at MaxSteps")
				}
				if hog.Iters != s.Iters {
					t.Fatalf("hogwild completed %d/%d iterations", hog.Iters, s.Iters)
				}
				for j := range hog.Final {
					if hog.Final[j] != sim.FinalX[j] {
						t.Fatalf("one-worker finals differ at coord %d: %v (threads) vs %v (machine)",
							j, hog.Final[j], sim.FinalX[j])
					}
				}
				if hog.CoordOps != sim.CoordOps || hog.CoordOps <= 0 {
					t.Fatalf("CoordOps %d (threads) vs %d (machine)", hog.CoordOps, sim.CoordOps)
				}

				// Statistical leg: several workers, tolerance and staleness.
				s.Policy = func(_ int, r *rng.Rand) shm.Policy { return &sched.Random{R: r} }
				hog, sim = runPair(t, s, &st, oc.mk, diffWorkers, diffThreads, oc.alpha)
				if sim.Stats.Stalled > 0 {
					t.Fatal("multi-thread machine stalled")
				}
				o, err := oc.mk()
				if err != nil {
					t.Fatal(err)
				}
				hogD2, err := vec.Dist2Sq(hog.Final, o.Optimum())
				if err != nil {
					t.Fatal(err)
				}
				simD2, err := vec.Dist2Sq(sim.FinalX, o.Optimum())
				if err != nil {
					t.Fatal(err)
				}
				if hogD2 > oc.tol || simD2 > oc.tol {
					t.Fatalf("dist² %v (threads) or %v (machine) exceeds tolerance %v", hogD2, simD2, oc.tol)
				}
				// A machine iteration that applies no update of its own (a
				// zero direction, a batch-buffered gradient) records no end
				// and so runs to the end of the run: the machine's bound is
				// checked where all ended.
				simTauAvg := contention.TauAvg(sim.Windows)
				open := func(w contention.Window) bool { return w.Start > 0 && w.End == 0 }
				simEnded := !slices.ContainsFunc(sim.Windows, open)
				if hog.AvgStaleness > 2*diffWorkers || simEnded && simTauAvg > 2*diffThreads {
					t.Fatalf("τavg %v (threads, n=%d) or %v (machine, n=%d) exceeds 2n",
						hog.AvgStaleness, diffWorkers, simTauAvg, diffThreads)
				}
				// The gated disciplines' MaxStaleness is hogwild's exact gauge.
				if st.Tau > 0 {
					if hog.MaxStaleness > st.Tau {
						t.Fatalf("real-thread staleness %d exceeds τ=%d", hog.MaxStaleness, st.Tau)
					}
					if adm := contention.MaxAdmissions(sim.Windows); adm > st.Tau {
						t.Fatalf("machine staleness %d exceeds τ=%d", adm, st.Tau)
					}
				}
			})
		}
	}
}

// TestRejectionParityBadParams: negative discipline parameters are
// rejected by both runtimes.
func TestRejectionParityBadParams(t *testing.T) {
	for _, st := range []Strategy{BoundedStaleness(-1), UpdateBatching(-2), EpochFence(-3)} {
		o, err := denseOracle()
		if err != nil {
			t.Fatal(err)
		}
		checkRejected(t, &st, o, 50, 0.05)
	}
}

// TestFullEpochCountsAgree: both runtimes' Algorithm 2 default to the
// same Corollary-7.1 epoch count for the same ε, α₀, n and oracle.
func TestFullEpochCountsAgree(t *testing.T) {
	o, err := denseOracle()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, eps := range []float64{1e-4, 0.05, 4} {
		for _, alpha0 := range []float64{0.05, 0.5} {
			for _, n := range []int{1, 3} {
				sim, err := core.RunFull(core.FullConfig{
					Threads: n, Epsilon: eps, Alpha0: alpha0, ItersPerEpoch: 10,
					Oracle: o, Seed: 1, PolicyFactory: func(int) shm.Policy { return &sched.RoundRobin{} },
				})
				if err != nil {
					t.Fatal(err)
				}
				hog, err := hogwild.RunFull(hogwild.FullConfig{
					Workers: n, Epsilon: eps, Alpha0: alpha0, ItersPerEpoch: 10,
					Oracle: o, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if sim.Epochs != hog.Epochs {
					t.Errorf("ε=%v α₀=%v n=%d: %d epochs (machine) vs %d (threads)",
						eps, alpha0, n, sim.Epochs, hog.Epochs)
				}
				seen[sim.Epochs] = true
			}
		}
	}
	if len(seen) < 3 {
		t.Errorf("epoch counts %v; want the grid to reach at least three", seen)
	}
}

// The crash-parity cell: sweep's ticket/1 fault recipe on a τ = 2
// bounded-staleness cell of three workers, so one worker dies holding an
// unpublished gate ticket and the recovery protocol reclaims it.
// hogwildConfig materializes the recipe as a hogwild.FaultPlan,
// machineConfig as sched.Faulty with CrashRecovery, both from the cell
// seed: the same victim and crash point on both runtimes.
const (
	parityTau     = 2
	parityWorkers = 3
	parityAlpha   = 0.05
	paritySeed    = 4242
)

// parityCell is the crash-parity cell at the given budget.
func parityCell(t *testing.T, iters int) (*Spec, Cell) {
	t.Helper()
	ticket, err := ParseFaults("ticket/1")
	if err != nil {
		t.Fatal(err)
	}
	st := BoundedStaleness(parityTau)
	c := diffCell(&st, parityWorkers, parityAlpha, paritySeed)
	c.faults, c.Faults = &ticket, ticket.Name
	return &Spec{Iters: iters}, c
}

// gap is the suboptimality f(x) − f(x*), clamped at 0.
func gap(o grad.Oracle, x vec.Dense) float64 {
	return math.Max(0, o.Value(x)-o.Value(o.Optimum()))
}

// TestCrashRecoveryParity runs the crash-parity cell on both runtimes.
// Faulted multi-worker executions are (like fault-free ones) only
// statistically comparable across runtimes, so the invariants are
// structural — crash accounting, liveness, reclamation — plus a shared
// suboptimality bound, not bit equality.
func TestCrashRecoveryParity(t *testing.T) {
	const iters = 800
	s, c := parityCell(t, iters)
	oh, err := denseOracle()
	if err != nil {
		t.Fatal(err)
	}
	d := oh.Dim()
	hog, err := runHogwildCell(t, s, c, oh, vec.Constant(d, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	om, err := denseOracle()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := runMachineCell(t, s, c, om, vec.Constant(d, 0.5))
	if err != nil {
		t.Fatal(err)
	}

	// Survivor parity: both runtimes lose exactly the planned victim.
	if hog.Crashed != 1 || sim.Stats.Crashed != 1 {
		t.Fatalf("crash counts differ: %d (threads) vs %d (machine), want 1 on both",
			hog.Crashed, sim.Stats.Crashed)
	}
	if sim.Stats.Completed != parityWorkers-1 {
		t.Fatalf("machine survivors = %d, want %d", sim.Stats.Completed, parityWorkers-1)
	}

	// Liveness parity: the reclaimed ticket unsticks the gate on both
	// runtimes, so the survivors finish the whole budget.
	if hog.Iters != iters {
		t.Fatalf("real threads completed %d/%d iterations", hog.Iters, iters)
	}
	if sim.Stats.Stalled != 0 {
		t.Fatalf("machine stalled %d survivors at the gate", sim.Stats.Stalled)
	}

	// Reclamation parity: each runtime tombstoned the orphaned ticket.
	if hog.RecoveredTickets < 1 || sim.RecoveredTickets < 1 {
		t.Fatalf("recovered tickets: %d (threads) vs %d (machine), want ≥ 1 on both",
			hog.RecoveredTickets, sim.RecoveredTickets)
	}

	// The admission bound survives the crash on the real threads.
	if hog.MaxStaleness > parityTau {
		t.Fatalf("real-thread staleness %d exceeds τ=%d after recovery", hog.MaxStaleness, parityTau)
	}

	// Bounded gap on both sides: the crash costs throughput, never
	// convergence. The bound mirrors the fault-free suite's margin (~20×
	// typical measured gaps at this budget).
	start := gap(oh, vec.Constant(d, 0.5))
	for name, g := range map[string]float64{"threads": gap(oh, hog.Final), "machine": gap(om, sim.FinalX)} {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("%s gap is non-finite: %v", name, g)
		}
		if g > start/4 {
			t.Fatalf("%s gap %v did not shrink below %v (start %v) after %d iterations",
				name, g, start/4, start, iters)
		}
	}
}

// TestCrashParityDeterministicReplay: the machine leg of the crash-parity
// cell is bit-reproducible (seeded fault plans are part of the cell
// identity), and the hogwild leg's fault accounting is a function of the
// plan alone — the properties the committed E19 table and the serve cache
// rely on.
func TestCrashParityDeterministicReplay(t *testing.T) {
	s, c := parityCell(t, 200)
	o, err := denseOracle()
	if err != nil {
		t.Fatal(err)
	}
	x0 := vec.Constant(o.Dim(), 0.5)
	machine := func() *core.EpochResult {
		t.Helper()
		res, err := runMachineCell(t, s, c, o, x0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := machine(), machine()
	if !vec.ApproxEqual(a.FinalX, b.FinalX, 0) {
		t.Fatal("machine crash-recovery run is not bit-reproducible")
	}
	if a.Stats != b.Stats || a.RecoveredTickets != b.RecoveredTickets {
		t.Fatalf("machine fault accounting differs across identical runs: %+v vs %+v", a.Stats, b.Stats)
	}

	threads := func() (int, int) {
		t.Helper()
		res, err := runHogwildCell(t, s, c, o, x0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Crashed, res.RecoveredTickets
	}
	c1, r1 := threads()
	c2, r2 := threads()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("real-thread fault accounting varies across replays: %d/%d vs %d/%d", c1, r1, c2, r2)
	}
}
