package hogwild

import (
	"fmt"
	"sync"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// Strategy is the pluggable synchronization discipline of the real-thread
// runtime. It replaces the monolithic mode switch that used to live in
// Run: a strategy owns the run-wide shared state of its discipline (lock
// tables, nothing for lock-free) and stamps out one Stepper per worker
// goroutine. New disciplines — batched application, epoch fencing,
// bounded-staleness gates — plug in here without touching Run.
//
// Lifecycle: Run calls Bind exactly once before launching workers, then
// NewStepper once per worker from the launching goroutine. A Strategy
// value may be reused across sequential runs (Bind re-initializes all
// shared state) but never across concurrent ones.
type Strategy interface {
	// Name labels the strategy in results, reports and benchmarks.
	Name() string
	// Bind attaches the strategy to a run's shared model and step size,
	// (re)initializing all run-wide state.
	Bind(model *atomicfloat.Vector, alpha float64) error
	// NewStepper returns the iteration body for one worker. The stepper
	// is used only from that worker's goroutine.
	NewStepper(id int, oracle grad.Oracle, r *rng.Rand) (Stepper, error)
}

// Stepper executes SGD iterations for a single worker goroutine.
type Stepper interface {
	// Step runs one complete SGD iteration (view → gradient → apply) and
	// returns the number of shared model-coordinate accesses it performed
	// (reads plus writes) — the quantity the sparse pipeline shrinks from
	// O(d) to O(nnz).
	Step() int
}

// applyDenseRuns is the lock-free bulk dense-apply kernel shared by the
// strategies: it walks g for maximal runs of non-zero coordinates and
// issues one FetchAddScaledRun per run, scaling by -alpha in the fused
// op (no scratch staging, no extra memory traversal). Skipping zero
// coordinates keeps the op count and the IEEE bit patterns identical to
// the scalar FetchAdd loop (adding a signed zero would flip a stored -0
// to +0), so golden trajectories are preserved exactly. Returns the
// number of coordinate writes.
//
//asgd:hotpath
func applyDenseRuns(m *atomicfloat.Vector, alpha float64, g []float64) int {
	writes := 0
	n := len(g)
	for j := 0; j < n; {
		if g[j] == 0 {
			j++
			continue
		}
		start := j
		for j < n && g[j] != 0 {
			j++
		}
		m.FetchAddScaledRun(start, g[start:j], -alpha)
		writes += j - start
	}
	return writes
}

// scatterRuns is the sparse bulk-apply kernel: it fetch&adds
// -alpha·vals[k] at idx[k] for every k, batching maximal runs of
// consecutive indices into single FetchAddScaledRun calls. idx must be
// sorted ascending (vec.Sparse guarantees this). Isolated indices
// degenerate to runs of length one, so the apply order and arithmetic
// match the scalar scatter loop bit for bit. Returns the number of
// coordinate writes (= len(idx)).
//
//asgd:hotpath
func scatterRuns(m *atomicfloat.Vector, alpha float64, idx []int, vals []float64) int {
	n := len(idx)
	for k := 0; k < n; {
		start := k
		j0 := idx[k]
		for k < n && idx[k] == j0+(k-start) {
			k++
		}
		m.FetchAddScaledRun(j0, vals[start:k], -alpha)
	}
	return n
}

// DefaultStripes is the lock-table size of NewStripedLock(0): one lock
// per coordinate for the model sizes the experiments use (d ≤ 256), a
// bounded table beyond that.
const DefaultStripes = 256

// --- lock-free -------------------------------------------------------------

// lockFree is Algorithm 1 verbatim: snapshot an inconsistent view, apply
// non-zero gradient coordinates with atomic fetch&add.
type lockFree struct {
	model *atomicfloat.Vector
	alpha float64
}

// NewLockFree returns the Algorithm-1 lock-free strategy.
func NewLockFree() Strategy { return &lockFree{} }

func (s *lockFree) Name() string { return "lock-free" }

func (s *lockFree) Bind(model *atomicfloat.Vector, alpha float64) error {
	s.model, s.alpha = model, alpha
	return nil
}

func (s *lockFree) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	d := s.model.Dim()
	return &lockFreeStepper{
		s: s, oracle: oracle, r: r,
		view: vec.NewDense(d), g: vec.NewDense(d),
	}, nil
}

type lockFreeStepper struct {
	s      *lockFree
	oracle grad.Oracle
	r      *rng.Rand
	view   vec.Dense
	g      vec.Dense
}

//asgd:hotpath
func (w *lockFreeStepper) Step() int {
	m := w.s.model
	m.LoadAll(w.view)
	w.oracle.Grad(w.g, w.view, w.r)
	return len(w.view) + applyDenseRuns(m, w.s.alpha, w.g)
}

// --- coarse lock -----------------------------------------------------------

// coarseLock serializes whole iterations under one mutex — the consistent
// baseline of Langford et al. the paper's introduction contrasts with.
type coarseLock struct {
	model *atomicfloat.Vector
	alpha float64
	mu    sync.Mutex
}

// NewCoarseLock returns the consistent coarse-locking baseline strategy.
func NewCoarseLock() Strategy { return &coarseLock{} }

func (s *coarseLock) Name() string { return "coarse-lock" }

func (s *coarseLock) Bind(model *atomicfloat.Vector, alpha float64) error {
	s.model, s.alpha = model, alpha
	s.mu = sync.Mutex{}
	return nil
}

func (s *coarseLock) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	d := s.model.Dim()
	return &coarseLockStepper{
		s: s, oracle: oracle, r: r,
		view: vec.NewDense(d), g: vec.NewDense(d),
	}, nil
}

type coarseLockStepper struct {
	s      *coarseLock
	oracle grad.Oracle
	r      *rng.Rand
	view   vec.Dense
	g      vec.Dense
}

//asgd:hotpath
func (w *coarseLockStepper) Step() int {
	s := w.s
	s.mu.Lock()
	s.model.LoadAll(w.view)
	w.oracle.Grad(w.g, w.view, w.r)
	// Under the run-wide mutex fetch&add and load-store are the same
	// serial read-modify-write, so the bulk kernel applies verbatim.
	ops := len(w.view) + applyDenseRuns(s.model, s.alpha, w.g)
	s.mu.Unlock()
	return ops
}

// --- striped lock ----------------------------------------------------------

// stripedLock guards coordinates with a fixed table of lock stripes
// (coordinate j maps to stripe j mod stripes): consistent per-coordinate
// access, inconsistent cross-coordinate views. With stripes ≥ d it is
// one lock per coordinate; smaller tables trade contention for
// memory — one mutex per coordinate at d = 10⁶ is not a real design.
type stripedLock struct {
	model   *atomicfloat.Vector
	alpha   float64
	stripes []sync.Mutex
	n       int
}

// NewStripedLock returns the striped-locking strategy with the given
// stripe count (0 ⇒ DefaultStripes; negative is rejected at Bind).
func NewStripedLock(stripes int) Strategy { return &stripedLock{n: stripes} }

func (s *stripedLock) Name() string { return "striped-lock" }

func (s *stripedLock) Bind(model *atomicfloat.Vector, alpha float64) error {
	if s.n == 0 {
		s.n = DefaultStripes
	}
	if s.n < 0 {
		return fmt.Errorf("%w: stripe count %d", ErrBadConfig, s.n)
	}
	s.model, s.alpha = model, alpha
	s.stripes = make([]sync.Mutex, s.n)
	return nil
}

func (s *stripedLock) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	d := s.model.Dim()
	return &stripedLockStepper{
		s: s, oracle: oracle, r: r,
		view: vec.NewDense(d), g: vec.NewDense(d),
	}, nil
}

// loadView fills view with a stripe-grouped locked read: each stripe
// lock is taken once for all d/n coordinates it guards instead of once
// per coordinate. The view remains the usual cross-coordinate
// inconsistent snapshot (only per-coordinate reads are consistent), so
// grouping by stripe instead of scanning in index order changes nothing
// a caller may observe — each coordinate is still read exactly once.
func (s *stripedLock) loadView(view []float64) {
	d := len(view)
	for st := 0; st < s.n && st < d; st++ {
		mu := &s.stripes[st]
		mu.Lock()
		for j := st; j < d; j += s.n {
			view[j] = s.model.Load(j)
		}
		mu.Unlock()
	}
}

// applyDense subtracts alpha·g from the model and returns the number of
// coordinate writes. The write pass visits each stripe once, holding its
// lock across all the stripe's non-zero gradient coordinates —
// O(min(n,d)) lock acquisitions per iteration instead of O(nnz).
// Per-coordinate arithmetic is the scalar path's read-modify-write, so
// single-worker trajectories keep their exact bits (coordinate updates
// commute across the reordering because each touches only its own
// register).
func (s *stripedLock) applyDense(g []float64) int {
	writes := 0
	d := len(g)
	for st := 0; st < s.n && st < d; st++ {
		locked := false
		for j := st; j < d; j += s.n {
			if g[j] == 0 {
				continue
			}
			if !locked {
				s.stripes[st].Lock()
				locked = true
			}
			s.model.Store(j, s.model.Load(j)-s.alpha*g[j])
			writes++
		}
		if locked {
			s.stripes[st].Unlock()
		}
	}
	return writes
}

type stripedLockStepper struct {
	s      *stripedLock
	oracle grad.Oracle
	r      *rng.Rand
	view   vec.Dense
	g      vec.Dense
}

//asgd:hotpath
func (w *stripedLockStepper) Step() int {
	s := w.s
	s.loadView(w.view)
	w.oracle.Grad(w.g, w.view, w.r)
	return len(w.view) + s.applyDense(w.g)
}

// --- sparse lock-free ------------------------------------------------------

// sparseLockFree is the sparse-aware Algorithm 1: the oracle announces
// the coordinates the sampled gradient reads (PlanSparse), the stepper
// loads exactly those, and the update fetch&adds only the gradient's
// non-zeros. Per iteration that is O(|support| + nnz) shared-memory
// operations instead of the dense path's O(d) — on sparse workloads the
// difference between scanning the model and touching it.
type sparseLockFree struct {
	model *atomicfloat.Vector
	alpha float64
}

// NewSparseLockFree returns the sparse-aware lock-free strategy. Its
// steppers require an oracle with the grad.SparseOracle capability.
func NewSparseLockFree() Strategy { return &sparseLockFree{} }

func (s *sparseLockFree) Name() string { return "sparse-lock-free" }

func (s *sparseLockFree) Bind(model *atomicfloat.Vector, alpha float64) error {
	s.model, s.alpha = model, alpha
	return nil
}

func (s *sparseLockFree) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	so, ok := grad.AsSparse(oracle)
	if !ok {
		return nil, fmt.Errorf("%w: %s strategy needs a grad.SparseOracle (got %T)",
			ErrBadConfig, s.Name(), oracle)
	}
	return &sparseStepper{s: s, oracle: so, r: r}, nil
}

type sparseStepper struct {
	s      *sparseLockFree
	oracle grad.SparseOracle
	r      *rng.Rand
	vals   []float64  // gathered support values (reused)
	g      vec.Sparse // sparse gradient (reused)
}

//asgd:hotpath
func (w *sparseStepper) Step() int {
	s := w.s
	support := w.oracle.PlanSparse(w.r)
	w.vals = sizedFor(w.vals, len(support))
	s.model.GatherInto(w.vals, support)
	w.oracle.GradSparseAt(&w.g, w.vals, w.r)
	// vec.Sparse keeps indices strictly sorted, so consecutive support
	// coordinates (common under contiguous-block sampling) scatter as
	// whole runs.
	return len(support) + scatterRuns(s.model, s.alpha, w.g.Indices, w.g.Values)
}

// sizedFor returns buf resized to length n, reusing its capacity when
// possible — the alloc-free resize behind the GatherInto fast path.
func sizedFor(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
