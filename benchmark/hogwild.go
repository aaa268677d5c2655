package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// Sizes of the two real-thread workloads.
const (
	denseDim     = 1 << 18 // banked layout, 2 MiB model
	denseIters   = 512
	denseAlpha   = 0.01 // small on purpose, see setupHogwildDense
	denseWorkers = 2

	// The sparse problem is d = 256, not the d = 1024 the issue sized:
	// grad.NewSparseLeastSquares forms a dense Gram matrix and solves its
	// eigenproblem, O(d³) — 0.5 s at d = 256, 92 s at d = 1024 on this
	// host — and set-up runs several times per run. Row density is raised
	// to keep the 51 non-zeros per row.
	sparseDim     = 256
	sparseRows    = 4 * sparseDim
	sparseKeep    = 0.2
	sparseIters   = 400_000
	sparseTau     = 4
	sparseWorkers = 2
)

// hogwildInst is a set-up real-thread workload: op = one hogwild.Run.
type hogwildInst struct {
	name     string
	oracle   grad.Oracle
	x0       vec.Dense
	workers  int
	iters    int
	alpha    float64
	strategy func() hogwild.Strategy
	// every is the oracle decorator's sampling period in the traced pass.
	every int64
	// check validates one run's result beyond the common checks and
	// returns the run's quality figure.
	check func(res *hogwild.Result) (float64, error)
	seed  uint64
	seq   atomic.Int64
	tr    *tracer
}

func (h *hogwildInst) clients() int    { return 1 }
func (h *hogwildInst) finish() []error { return nil }
func (h *hogwildInst) close()          {}

func (h *hogwildInst) op(int) sample {
	return h.run(h.tr, h.workers, h.strategy())
}

// run executes one hogwild.Run with the instance's oracle and sizes under
// the given worker count and strategy, checks the result and — when
// tracing — records the op, the run and the oracle's share of it.
func (h *hogwildInst) run(tr *tracer, workers int, strat hogwild.Strategy) sample {
	k := int(h.seq.Add(1))
	cfg := hogwild.Config{
		Workers:    workers,
		TotalIters: h.iters,
		Alpha:      h.alpha,
		Oracle:     h.oracle,
		Seed:       mixSeed(h.seed, 0, k),
		Strategy:   strat,
		X0:         h.x0,
	}
	opID := tr.newOp()
	root := tr.start("op."+h.name, 0, opID)
	var tap *oracleTap
	if tr != nil {
		tap = &oracleTap{tr: tr, every: h.every}
		cfg.Oracle = tap.wrap(h.oracle, -1)
	}
	runSpan := tr.start("hogwild.run", root.id(), opID)
	t0 := time.Now()
	res, err := hogwild.Run(cfg)
	wall := time.Since(t0)
	runSpan.end()

	s := sample{wallNS: int64(wall), cells: 1}
	if tap != nil {
		tap.emit("grad.oracle", runSpan.id(), opID)
		_, s.oracleBusyNS = tap.busy()
	}
	switch {
	case err != nil:
		s.err = fmt.Errorf("%s: %w", h.name, err)
	case res.Iters != h.iters:
		s.err = fmt.Errorf("%s: completed %d iterations, budget %d", h.name, res.Iters, h.iters)
	case !res.Final.IsFinite():
		s.err = fmt.Errorf("%s: final model is not finite", h.name)
	default:
		s.updates = int64(res.Iters)
		s.coordOps = res.CoordOps
		s.maxStale = res.MaxStaleness
		if s.quality, err = h.check(res); err != nil {
			s.err = fmt.Errorf("%s: %w", h.name, err)
		}
	}
	root.end()
	return s
}

// setupHogwildDense builds the dense workload. α is small on purpose: at
// α = 0.5 the iterate reaches x* exactly within the budget, gradients
// become 0 and the runtime's zero-skipping apply drops them, so the op
// would stop exercising the fetch&add kernel halfway through.
func setupHogwildDense(e *env, seed uint64) (instance, error) {
	q := newDiagQuadratic(denseDim, rng.New(seed))
	init2 := q.xstar.Norm2Sq() // x₀ = 0
	h := &hogwildInst{
		name:     "hogwild_dense",
		oracle:   q,
		workers:  denseWorkers,
		iters:    denseIters,
		alpha:    denseAlpha,
		strategy: hogwild.NewLockFree,
		every:    1,
		seed:     seed,
		tr:       e.tr,
		check: func(res *hogwild.Result) (float64, error) {
			d2, err := vec.Dist2Sq(res.Final, q.xstar)
			if err != nil {
				return 0, err
			}
			ratio := d2 / init2
			if ratio > 0.01 {
				return ratio, fmt.Errorf("‖x_T−x*‖² is %.4g of ‖x₀−x*‖², want ≤ 0.01", ratio)
			}
			if want := int64(2 * denseDim * denseIters); res.CoordOps != want {
				return ratio, fmt.Errorf("%d coordinate ops, want 2·d·T = %d", res.CoordOps, want)
			}
			return ratio, nil
		},
	}
	return h, warmUp(h)
}

// setupHogwildSparse builds the gated sparse workload on the repository's
// own sparse least-squares oracle.
func setupHogwildSparse(e *env, seed uint64) (instance, error) {
	r := rng.New(seed)
	ds, err := data.GenLinear(data.LinearConfig{Samples: sparseRows, Dim: sparseDim, NoiseStd: 0.05}, r)
	if err != nil {
		return nil, err
	}
	if err := data.SparsifyRows(ds, sparseKeep, r); err != nil {
		return nil, err
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		return nil, err
	}
	x0 := vec.Constant(sparseDim, 0.5)
	initLoss := sls.Value(x0)
	h := &hogwildInst{
		name:    "hogwild_sparse_gated",
		oracle:  sls,
		x0:      x0,
		workers: sparseWorkers,
		iters:   sparseIters,
		// SparsifyRows scales surviving entries by 1/keep, so the step has
		// to come from the oracle's own L or the run diverges.
		alpha:    0.5 / sls.Constants().L,
		strategy: func() hogwild.Strategy { return hogwild.NewBoundedStaleness(sparseTau) },
		every:    8,
		seed:     seed,
		tr:       e.tr,
		check: func(res *hogwild.Result) (float64, error) {
			if res.MaxStaleness > sparseTau {
				return 0, fmt.Errorf("observed staleness %d exceeds the gate τ = %d", res.MaxStaleness, sparseTau)
			}
			loss := sls.Value(res.Final)
			if !(loss < initLoss) {
				return loss / initLoss, fmt.Errorf("final loss %.4g is not below the initial %.4g", loss, initLoss)
			}
			return loss / initLoss, nil
		},
	}
	return h, warmUp(h)
}

// warmUp runs the one untimed op that set-up includes, so the first
// measured op does not pay first-touch page faults and lazy start-up.
func warmUp(inst instance) error {
	if s := inst.op(0); s.err != nil {
		return fmt.Errorf("warm-up op: %w", s.err)
	}
	return nil
}
