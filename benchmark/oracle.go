package main

import (
	"sync"
	"sync/atomic"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// diagQuadratic is the benchmark-owned oracle of hogwild_dense:
//
//	f(x) = ½ Σ_j λ_j (x_j − x*_j)²,   g̃(x) = ∇f(x) exactly
//
// the noiseless setting of the paper's Section 5. grad.Quadratic draws a
// Gaussian per coordinate even at σ = 0 (≈ 17 ns/coord in rng.Normal
// against ≈ 7 ns/coord for the runtime's load + fetch&add), which would
// make the workload an RNG benchmark; here the oracle costs about a
// nanosecond per coordinate, so the atomicfloat bulk kernels dominate
// the op.
type diagQuadratic struct {
	lambda vec.Dense
	xstar  vec.Dense
}

var _ grad.Oracle = (*diagQuadratic)(nil)

// newDiagQuadratic draws λ_j uniform in [0.5, 1] and x* standard normal.
func newDiagQuadratic(d int, r *rng.Rand) *diagQuadratic {
	q := &diagQuadratic{lambda: vec.NewDense(d), xstar: vec.NewDense(d)}
	for j := range q.lambda {
		q.lambda[j] = 0.5 + 0.5*r.Float64()
	}
	r.NormalVector(q.xstar, 1)
	return q
}

func (q *diagQuadratic) Dim() int { return len(q.lambda) }

func (q *diagQuadratic) Value(x vec.Dense) float64 {
	var s float64
	for j, xj := range x {
		d := xj - q.xstar[j]
		s += q.lambda[j] * d * d
	}
	return 0.5 * s
}

func (q *diagQuadratic) FullGrad(dst, x vec.Dense) {
	lambda, xstar := q.lambda, q.xstar
	for j := range dst {
		dst[j] = lambda[j] * (x[j] - xstar[j])
	}
}

func (q *diagQuadratic) Grad(dst, x vec.Dense, _ *rng.Rand) { q.FullGrad(dst, x) }

func (q *diagQuadratic) Optimum() vec.Dense { return q.xstar.Clone() }

func (q *diagQuadratic) Constants() grad.Constants {
	// λ ∈ [0.5, 1]; M² on the unit-free ball is not used by the workload.
	return grad.Constants{C: 0.5, L: 1, M2: 1, R: 1}
}

// CloneFor shares the oracle: it is immutable and keeps no scratch.
func (q *diagQuadratic) CloneFor(int) grad.Oracle { return q }

// --- tracing decorator ---

// oracleTap is the benchmark's view into the oracle layer from outside:
// it decorates an oracle (and every worker clone of it) so the traced pass
// can time the gradient calls a runtime makes and see when the sweep
// engine starts computing a cell's quality metrics (its first call of
// Optimum after the run). The decorator preserves the grad.SparseOracle
// capability — a runtime picks the sparse pipeline by type assertion, so
// losing it would silently change the work measured (and, on the
// simulator, the result bytes).
type oracleTap struct {
	tr *tracer
	// every selects which gradient calls are timed: call k is timed when
	// k%every == 0; 0 times none. The dense oracle is timed on every call
	// (≈ 0.3 ms each); the sparse one on one call in eight, because two
	// clock reads cost a tenth of a ≈ 1 µs iteration.
	every int64
	// optimumAt is the trace time of the latest Optimum call (0: none).
	optimumAt atomic.Int64

	mu     sync.Mutex
	meters []*oracleMeter
}

// oracleMeter accumulates one clone's calls. A clone is used from one
// goroutine only (the grad.Oracle contract), so no field is atomic; the
// tap reads them after the run has returned.
type oracleMeter struct {
	worker int
	calls  int64 // gradient evaluations
	timed  int64 // … of which timed
	busyNS int64 // total duration of the timed ones
	first  int64 // trace time of the first timed call's start
	last   int64 // trace time of the last timed call's end
}

// estimate is the clone's busy time: the timed calls' total scaled up to
// all calls.
func (m *oracleMeter) estimate() float64 {
	if m.timed == 0 {
		return 0
	}
	return float64(m.busyNS) * float64(m.calls) / float64(m.timed)
}

func (t *oracleTap) newMeter(worker int) *oracleMeter {
	m := &oracleMeter{worker: worker}
	t.mu.Lock()
	t.meters = append(t.meters, m)
	t.mu.Unlock()
	return m
}

// wrap decorates o; worker labels the clone's aggregate span.
func (t *oracleTap) wrap(o grad.Oracle, worker int) grad.Oracle {
	base := tracedOracle{Oracle: o, tap: t, m: t.newMeter(worker)}
	if so, ok := grad.AsSparse(o); ok {
		return &tracedSparseOracle{tracedOracle: base, so: so}
	}
	return &base
}

// busy returns the clones' calls and estimated busy time.
func (t *oracleTap) busy() (calls int64, busyNS float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.meters {
		calls += m.calls
		busyNS += m.estimate()
	}
	return calls, busyNS
}

// emit records one aggregate span per clone that evaluated gradients.
func (t *oracleTap) emit(name string, parent, op int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.meters {
		if m.timed == 0 {
			continue
		}
		t.tr.add(span{
			Parent: parent, Op: op, Name: name, Slot: m.worker,
			Start: m.first, End: m.last, Calls: m.calls, BusyNS: int64(m.estimate()),
		})
	}
}

type tracedOracle struct {
	grad.Oracle
	tap *oracleTap
	m   *oracleMeter
}

// sampled reports whether the current call is one of the timed ones.
func (o *tracedOracle) sampled() bool {
	return o.tap.every > 0 && o.m.calls%o.tap.every == 0
}

func (o *tracedOracle) observe(start int64) {
	end := o.tap.tr.now()
	if o.m.timed == 0 {
		o.m.first = start
	}
	o.m.timed++
	o.m.busyNS += end - start
	o.m.last = end
}

func (o *tracedOracle) Grad(dst, x vec.Dense, r *rng.Rand) {
	if !o.sampled() {
		o.m.calls++
		o.Oracle.Grad(dst, x, r)
		return
	}
	start := o.tap.tr.now()
	o.Oracle.Grad(dst, x, r)
	o.observe(start)
	o.m.calls++
}

func (o *tracedOracle) Optimum() vec.Dense {
	o.tap.optimumAt.Store(o.tap.tr.now())
	return o.Oracle.Optimum()
}

func (o *tracedOracle) CloneFor(w int) grad.Oracle {
	return o.tap.wrap(o.Oracle.CloneFor(w), w)
}

// tracedSparseOracle adds the two-phase sparse protocol. One iteration is
// PlanSparse + GradSparseAt (the runtime gathers the support in between);
// both halves are timed and the iteration is counted at GradSparseAt.
type tracedSparseOracle struct {
	tracedOracle
	so        grad.SparseOracle
	planStart int64
	planNS    int64
}

var _ grad.SparseOracle = (*tracedSparseOracle)(nil)

func (o *tracedSparseOracle) PlanSparse(r *rng.Rand) []int {
	if !o.sampled() {
		return o.so.PlanSparse(r)
	}
	o.planStart = o.tap.tr.now()
	support := o.so.PlanSparse(r)
	o.planNS = o.tap.tr.now() - o.planStart
	return support
}

func (o *tracedSparseOracle) GradSparseAt(dst *vec.Sparse, vals []float64, r *rng.Rand) {
	if !o.sampled() {
		o.m.calls++
		o.so.GradSparseAt(dst, vals, r)
		return
	}
	start := o.tap.tr.now()
	o.so.GradSparseAt(dst, vals, r)
	// Charge the plan half to the same iteration: shift the start back
	// by its duration so busy = plan + grad and first = the plan's start.
	o.observe(start - o.planNS)
	if o.m.timed == 1 {
		o.m.first = o.planStart
	}
	o.m.calls++
}
