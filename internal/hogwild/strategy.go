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

// pipeline is Algorithm 1's iteration body, written once for every
// stepper but the striped lock's: gradient reads an inconsistent view
// and draws g̃ at it, apply fetch&adds −α·g̃ into each register. A
// discipline changes only when a view may be taken (a gate, a lock) or
// when updates land (a batch, a median round), so its stepper wraps
// these two calls rather than restating them. With a grad.SparseOracle
// (so non-nil) the view is the planned support and the update its
// non-zeros — O(|support| + nnz) shared operations instead of O(d).
type pipeline struct {
	model  *atomicfloat.Vector
	alpha  float64
	oracle grad.Oracle
	so     grad.SparseOracle // non-nil ⇒ the sparse path
	r      *rng.Rand
	view   vec.Dense  // dense path: the view
	g      vec.Dense  // dense path: the gradient
	vals   []float64  // sparse path: gathered support values (reused)
	sg     vec.Sparse // sparse path: the gradient (reused)
}

// newPipeline returns the iteration body over model for one worker; a
// nil so selects the dense path.
func newPipeline(model *atomicfloat.Vector, alpha float64, oracle grad.Oracle,
	so grad.SparseOracle, r *rng.Rand) pipeline {
	p := pipeline{model: model, alpha: alpha, oracle: oracle, so: so, r: r}
	if so == nil {
		d := model.Dim()
		p.view, p.g = vec.NewDense(d), vec.NewDense(d)
	}
	return p
}

// gradient reads the view and draws the gradient at it, returning the
// number of coordinate reads.
//
//asgd:hotpath
func (p *pipeline) gradient() int {
	if p.so == nil {
		p.model.LoadAll(p.view)
		p.oracle.Grad(p.g, p.view, p.r)
		return len(p.view)
	}
	support := p.so.PlanSparse(p.r)
	p.vals = sizedFor(p.vals, len(support))
	p.model.GatherInto(p.vals, support)
	p.so.GradSparseAt(&p.sg, p.vals, p.r)
	return len(support)
}

// apply fetch&adds −α times the last gradient into the model and returns
// the number of coordinate writes. vec.Sparse keeps indices strictly
// sorted, so consecutive support coordinates scatter as whole runs.
//
//asgd:hotpath
func (p *pipeline) apply() int {
	if p.so == nil {
		return applyDenseRuns(p.model, p.alpha, p.g)
	}
	return scatterRuns(p.model, p.alpha, p.sg.Indices, p.sg.Values)
}

// --- lock-free -------------------------------------------------------------

// lockFree is Algorithm 1 verbatim: snapshot an inconsistent view, apply
// non-zero gradient coordinates with atomic fetch&add. The sparse
// variant reads only the support its oracle plans (PlanSparse) and
// writes only the gradient's non-zeros — on sparse workloads the
// difference between scanning the model and touching it.
type lockFree struct {
	model  *atomicfloat.Vector
	alpha  float64
	sparse bool
}

// NewLockFree returns the Algorithm-1 lock-free strategy.
func NewLockFree() Strategy { return &lockFree{} }

// NewSparseLockFree returns the sparse-aware lock-free strategy. Its
// steppers require an oracle with the grad.SparseOracle capability.
func NewSparseLockFree() Strategy { return &lockFree{sparse: true} }

func (s *lockFree) Name() string {
	if s.sparse {
		return "sparse-lock-free"
	}
	return "lock-free"
}

func (s *lockFree) Bind(model *atomicfloat.Vector, alpha float64) error {
	s.model, s.alpha = model, alpha
	return nil
}

func (s *lockFree) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	var so grad.SparseOracle
	if s.sparse {
		var ok bool
		if so, ok = grad.AsSparse(oracle); !ok {
			return nil, fmt.Errorf("%w: %s strategy needs a grad.SparseOracle (got %T)",
				ErrBadConfig, s.Name(), oracle)
		}
	}
	return &lockFreeStepper{newPipeline(s.model, s.alpha, oracle, so, r)}, nil
}

type lockFreeStepper struct{ pipeline }

//asgd:hotpath
func (w *lockFreeStepper) Step() int { return w.gradient() + w.apply() }

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
	return &coarseLockStepper{newPipeline(s.model, s.alpha, oracle, nil, r), &s.mu}, nil
}

type coarseLockStepper struct {
	pipeline
	mu *sync.Mutex
}

//asgd:hotpath
func (w *coarseLockStepper) Step() int {
	w.mu.Lock()
	// Under the run-wide mutex fetch&add and load-store are the same
	// serial read-modify-write, so the bulk kernel applies verbatim.
	ops := w.gradient() + w.apply()
	w.mu.Unlock()
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

// sizedFor returns buf resized to length n, reusing its capacity when
// possible — the alloc-free resize behind the GatherInto fast path.
func sizedFor(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
