package harness

import (
	"errors"
	"testing"

	"asyncsgd/internal/core"
	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
)

// denseOracle builds the standard dense differential workload: an
// isotropic quadratic with no sparse capability.
func denseOracle() (grad.Oracle, error) {
	return grad.NewIsoQuadratic(8, 1, 0.2, 4, nil)
}

// sparseOracle builds the sparse differential workload: least squares
// over rows thinned to ~15% density (both a dense Grad and the
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

// strategyCase names one built-in strategy with its machine counterpart.
type strategyCase struct {
	name    string
	mk      func() hogwild.Strategy
	sim     SimSpec // Sparse is filled per oracle below
	tau     int
	needsSp bool // requires a grad.SparseOracle
	spOnly  bool // sim uses the sparse pipeline when the oracle has it
}

// builtinStrategies is the full strategy roster the differential suite
// runs: the PR-1 built-ins plus the three disciplines.
func builtinStrategies() []strategyCase {
	return []strategyCase{
		{name: "lock-free", mk: hogwild.NewLockFree},
		{name: "coarse-lock", mk: hogwild.NewCoarseLock},
		{name: "striped-lock", mk: func() hogwild.Strategy { return hogwild.NewStripedLock(8) }},
		{name: "sparse-lock-free", mk: hogwild.NewSparseLockFree,
			sim: SimSpec{Sparse: true}, needsSp: true, spOnly: true},
		{name: "bounded-staleness", mk: func() hogwild.Strategy { return hogwild.NewBoundedStaleness(4) },
			sim: SimSpec{StalenessBound: 4}, tau: 4, spOnly: true},
		{name: "update-batching", mk: func() hogwild.Strategy { return hogwild.NewUpdateBatching(8) },
			sim: SimSpec{Batch: 8}, spOnly: true},
		{name: "epoch-fence", mk: func() hogwild.Strategy { return hogwild.NewEpochFence(16) },
			sim: SimSpec{FenceEvery: 16}, tau: 15, spOnly: true},
	}
}

// TestDifferentialAllStrategies is the acceptance matrix: every built-in
// strategy × {dense, sparse} oracle, each run on both runtimes with the
// full invariant set (bit-exact single-worker agreement, exact CoordOps,
// statistical convergence, τavg ≤ 2n over both runtimes' windows,
// staleness ≤ τ for the gated disciplines).
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
		for _, sc := range builtinStrategies() {
			t.Run(oc.name+"/"+sc.name, func(t *testing.T) {
				if sc.needsSp && !oc.sparse {
					// Capability mismatch: both runtimes must reject it.
					if err := CheckRejectionParity(Case{
						Name: sc.name, Strategy: sc.mk, Sim: sc.sim,
						Oracle: oc.mk, Iters: 100, Alpha: oc.alpha, Seed: 17,
					}); err != nil {
						t.Fatal(err)
					}
					return
				}
				sim := sc.sim
				// spOnly strategies switch their view reads to the sparse
				// pipeline when the oracle has the capability; the machine
				// counterpart must do the same.
				if sc.spOnly && oc.sparse {
					sim.Sparse = true
				}
				rep, err := RunDifferential(Case{
					Name:     oc.name + "/" + sc.name,
					Strategy: sc.mk,
					Sim:      sim,
					Oracle:   oc.mk,
					X0Val:    0.5,
					Iters:    oc.iters,
					Alpha:    oc.alpha,
					Seed:     1234,
					Tau:      sc.tau,
					Tol:      oc.tol,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.SingleCoordOps <= 0 {
					t.Fatalf("no coordinate ops accounted: %+v", rep)
				}
			})
		}
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

// TestRejectionParityBadParams: invalid discipline parameters are
// rejected by both runtimes.
func TestRejectionParityBadParams(t *testing.T) {
	for _, c := range []Case{
		{Name: "tau=-1", Strategy: func() hogwild.Strategy { return hogwild.NewBoundedStaleness(-1) },
			Sim: SimSpec{StalenessBound: -1}, Oracle: denseOracle, Iters: 50, Alpha: 0.05},
		{Name: "batch=-2", Strategy: func() hogwild.Strategy { return hogwild.NewUpdateBatching(-2) },
			Sim: SimSpec{Batch: -2}, Oracle: denseOracle, Iters: 50, Alpha: 0.05},
		{Name: "fence=-3", Strategy: func() hogwild.Strategy { return hogwild.NewEpochFence(-3) },
			Sim: SimSpec{FenceEvery: -3}, Oracle: denseOracle, Iters: 50, Alpha: 0.05},
	} {
		if err := CheckRejectionParity(c); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestContentionMonotoneInWorkers: the machine's maximum interval
// contention never decreases as threads are added under the fair
// schedule.
func TestContentionMonotoneInWorkers(t *testing.T) {
	if err := CheckContentionMonotone(denseOracle, 400, 0.05, 33,
		[]int{1, 2, 4, 8}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantErrorsAreTyped: violations surface as ErrInvariant so
// callers can tell a broken invariant from an execution error.
func TestInvariantErrorsAreTyped(t *testing.T) {
	// An absurdly tight tolerance must trip the suboptimality invariant.
	_, err := RunDifferential(Case{
		Name: "tight", Strategy: hogwild.NewLockFree, Oracle: denseOracle,
		X0Val: 0.5, Iters: 10, Alpha: 0.01, Seed: 3, Tol: 1e-12,
	})
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("expected ErrInvariant, got %v", err)
	}
}
