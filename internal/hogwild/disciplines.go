package hogwild

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// This file implements the three synchronization disciplines DESIGN.md §2
// promised beyond the lock-free/lock-based built-ins:
//
//   - NewBoundedStaleness(tau): a staleness gate. Iterations acquire
//     tickets and publish completions in ticket order, and a ticket may
//     take its view only once every ticket older than τ has fully
//     completed. The maximum delay an execution can exhibit — the τ that
//     parameterizes Theorem 6.5's bound and that the Section-5 adversary
//     inflates — is therefore capped at τ by construction.
//   - NewUpdateBatching(b): local update batching. Each worker accumulates
//     b gradients in a local vec.Sparse buffer and applies them in one
//     scatter fetch&add pass, cutting shared-memory write traffic ~b×.
//   - NewEpochFence(every): barrier-fenced epochs. Iteration t belongs to
//     epoch ⌊t/every⌋ and may start only after every iteration of earlier
//     epochs has completed — the real-goroutine version of FullSGD's
//     consistent-snapshot story, at sub-run granularity.
//
// The simulated-machine counterparts live in internal/core
// (EpochConfig.StalenessBound / Batch / FenceEvery), so every discipline
// runs on both runtimes and internal/sweep's differential tests check
// them against each other.

// StalenessBounded is implemented by strategies that enforce a staleness
// bound. TauBound returns the enforced bound τ; ObservedMaxStaleness
// returns the largest staleness any iteration of the last run actually
// exhibited (the number of iterations that began while it was in flight),
// which the discipline guarantees to be ≤ TauBound.
type StalenessBounded interface {
	TauBound() int
	ObservedMaxStaleness() int
}

// Flusher is an optional Stepper extension for disciplines that buffer
// updates locally: Run invokes Flush on a worker's stepper after the
// worker's last iteration, so buffered updates reach the shared model
// before the run's final snapshot. Flush returns the number of shared
// model-coordinate accesses it performed.
type Flusher interface {
	Flush() int
}

// --- striped ticket window --------------------------------------------------

// idleSlot marks an announce slot whose worker holds no ticket.
const idleSlot = int64(math.MaxInt64)

// announceSlot is one worker's publish register, padded to a cache line
// so concurrent announces by different workers never false-share.
type announceSlot struct {
	t atomic.Int64
	_ [56]byte // 64 − 8: one slot per line
}

// stripedWindow issues iteration tickets and tracks completion through a
// striped low-water-mark register instead of a single contended `done`
// word (the previous orderedWindow published completions in ticket order,
// making every release spin for its predecessors and every completion a
// store to one shared cache line — the gate itself became the bottleneck
// at high worker counts).
//
// Each worker owns a padded announce slot. The protocol:
//
//	acquire:  announce the candidate ticket t in the own slot BEFORE
//	          CAS-claiming it from issued, so a claimed-but-incomplete
//	          ticket is visible in its holder's slot at every instant;
//	release:  store idleSlot — one uncontended write, no ordering spin.
//
// The low-water mark is min(issued, slots...) with issued loaded BEFORE
// the slot scan. Soundness: any claimed-incomplete ticket u < issued(s₀)
// sits in its holder's slot throughout the scan, so the scan returns
// ≤ u; unclaimed tickets are ≥ issued(s₀). Hence lowWater() ≤ every
// incomplete ticket, and "lowWater ≥ minDone(t)" is the same admission
// gate the ordered window enforced — the ≤ τ staleness bound is
// preserved exactly (see acquire). Completion of a ticket is permanent,
// so the mark is monotone and lwm caches the best scan: admissions whose
// threshold is already met skip the O(workers) scan entirely.
type stripedWindow struct {
	issued atomic.Int64
	lwm    atomic.Int64 // cached low-water mark, only ever raised
	slots  []announceSlot
}

// reset re-initializes the window for a fresh run, dropping all
// registered slots (steppers re-register via register). Callers
// guarantee no worker is in flight.
func (w *stripedWindow) reset() {
	w.issued.Store(0)
	w.lwm.Store(0)
	w.slots = w.slots[:0]
}

// register appends an announce slot for one worker and returns its
// index. Called only from the launching goroutine (Run builds every
// stepper before starting any worker), so the slice may grow freely.
func (w *stripedWindow) register() int {
	w.slots = append(w.slots, announceSlot{})
	i := len(w.slots) - 1
	w.slots[i].t.Store(idleSlot)
	return i
}

// lowWater scans the register and returns a value v such that every
// ticket < v has completed. issued is loaded before the slots: a ticket
// claimed after that load is ≥ the loaded issued and cannot be missed.
// The cached mark is raised CAS-free-loop style and never lowered.
func (w *stripedWindow) lowWater() int64 {
	min := w.issued.Load() // BEFORE the slot scan — see soundness note above
	for i := range w.slots {
		if v := w.slots[i].t.Load(); v < min {
			min = v
		}
	}
	for {
		c := w.lwm.Load()
		if min <= c {
			return c
		}
		if w.lwm.CompareAndSwap(c, min) {
			return min
		}
	}
}

// acquire admits the caller through the gate and returns its ticket.
// Issuing the ticket IS the admission: the CAS on issued succeeds only
// while lowWater ≥ minDone(next ticket). While any ticket u is in
// flight its holder's slot pins lowWater ≤ u, so an admission of t
// requires t ≤ u + τ for the bounded-staleness gate minDone(t) = t−τ —
// at most τ iterations begin during any iteration's flight, exactly the
// ordered window's bound. The caller's own announce satisfies
// t ≥ minDone(t) for every gate shape, so a spinning worker never
// blocks itself (liveness); it re-announces each retry.
func (w *stripedWindow) acquire(slot int, minDone func(t int64) int64) int64 {
	me := &w.slots[slot].t
	for {
		t := w.issued.Load()
		me.Store(t) // announce before claim: never hold an unannounced ticket
		need := minDone(t)
		if w.lwm.Load() >= need || w.lowWater() >= need {
			if w.issued.CompareAndSwap(t, t+1) {
				return t
			}
			continue
		}
		runtime.Gosched()
	}
}

// begun returns the number of tickets issued after t, i.e. the number of
// iterations that began while ticket t was in flight — the iteration's
// staleness. Call before release.
func (w *stripedWindow) begun(t int64) int64 {
	return w.issued.Load() - 1 - t
}

// release publishes ticket t's completion: one store to the worker's own
// slot. No ordering spin — out-of-order completions simply leave the
// low-water mark at the oldest still-running ticket.
func (w *stripedWindow) release(slot int) {
	w.slots[slot].t.Store(idleSlot)
}

// --- bounded staleness ------------------------------------------------------

// boundedStaleness is the lock-free Algorithm 1 behind a staleness gate:
// an iteration may snapshot its view only once every iteration more than
// τ tickets older has fully applied its updates. The in-flight window
// never spans more than τ+1 iterations, so no view misses more than τ
// predecessors — the adversary's delay-injection power (Section 5) is
// capped at exactly the τ that Theorem 6.5's bound is parameterized by.
type boundedStaleness struct {
	model *atomicfloat.Vector
	alpha float64
	tau   int
	win   stripedWindow
	obs   atomic.Int64 // max observed staleness of the current run
}

// NewBoundedStaleness returns the bounded-staleness gated strategy with
// staleness bound tau ≥ 1 (rejected at Bind otherwise). The returned
// strategy implements StalenessBounded.
func NewBoundedStaleness(tau int) Strategy { return &boundedStaleness{tau: tau} }

func (s *boundedStaleness) Name() string { return "bounded-staleness" }

// TauBound implements StalenessBounded.
func (s *boundedStaleness) TauBound() int { return s.tau }

// ObservedMaxStaleness implements StalenessBounded.
func (s *boundedStaleness) ObservedMaxStaleness() int { return int(s.obs.Load()) }

func (s *boundedStaleness) Bind(model *atomicfloat.Vector, alpha float64) error {
	if s.tau <= 0 {
		return fmt.Errorf("%w: staleness bound %d (want ≥ 1)", ErrBadConfig, s.tau)
	}
	s.model, s.alpha = model, alpha
	s.win.reset()
	s.obs.Store(0)
	return nil
}

func (s *boundedStaleness) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	tau := int64(s.tau)
	return newGatedStepper(s.model, s.alpha, &s.win, &s.obs, oracle, r,
		func(t int64) int64 { return t - tau }), nil
}

// gatedStepper is the shared stepper of the window-gated disciplines
// (bounded staleness, epoch fencing): acquire a ticket through the
// discipline's gate, run one pipeline iteration, record the observed
// staleness, publish completion in the worker's announce slot. With a
// grad.SparseOracle the pipeline takes its sparse path, so a gated run
// pays O(|support|+nnz) shared operations per iteration, same as
// SparseLockFree — the gate changes when an iteration may take its view,
// not how much of the model it touches.
type gatedStepper struct {
	pipeline
	win     *stripedWindow
	slot    int // this worker's announce slot in win
	obs     *atomic.Int64
	minDone func(t int64) int64
}

func newGatedStepper(model *atomicfloat.Vector, alpha float64, win *stripedWindow,
	obs *atomic.Int64, oracle grad.Oracle, r *rng.Rand, minDone func(t int64) int64) *gatedStepper {
	so, _ := grad.AsSparse(oracle)
	return &gatedStepper{
		pipeline: newPipeline(model, alpha, oracle, so, r),
		win:      win, slot: win.register(), obs: obs, minDone: minDone,
	}
}

// AbandonTicket implements TicketHolder: acquire a ticket through the
// normal admission gate and return without releasing it — the in-flight
// state a crash leaves behind. The held ticket pins the window's
// low-water mark at or below it, so survivors block at the ≤ τ admission
// until ReclaimTicket tombstones it. If another victim's unreclaimed
// ticket is pinning the gate, the acquire spin here resolves as soon as
// the supervisor reclaims it (reclamation never runs on this goroutine).
//
//asgdvet:allow ticketpair(deliberate orphan: simulates a crash between claim and publish; ReclaimTicket is the supervisor-side undo)
func (w *gatedStepper) AbandonTicket() {
	w.win.acquire(w.slot, w.minDone)
}

// ReclaimTicket implements TicketHolder: publish the tombstone for
// this stepper's abandoned in-flight ticket by releasing its announce
// slot, letting the low-water mark advance past the orphan. Idempotent
// (releasing an idle slot is a no-op store). Called by Run's supervisor
// after the owning worker is gone — never concurrently with the owner.
func (w *gatedStepper) ReclaimTicket() {
	w.win.release(w.slot)
}

//asgd:hotpath
func (w *gatedStepper) Step() int {
	t := w.win.acquire(w.slot, w.minDone)
	ops := w.gradient() + w.apply()
	if span := w.win.begun(t); span > w.obs.Load() {
		for {
			m := w.obs.Load()
			if span <= m || w.obs.CompareAndSwap(m, span) {
				break
			}
		}
	}
	w.win.release(w.slot)
	return ops
}

// --- update batching --------------------------------------------------------

// updateBatching accumulates b gradients in worker-local memory and
// applies them with one scatter fetch&add pass: shared-memory write
// traffic drops ~b× while the view reads (and hence the convergence
// dynamics, up to the extra staleness of buffered updates) stay those of
// the underlying lock-free discipline. With a grad.SparseOracle the view
// reads shrink to the planned support as well, making the whole iteration
// O(|support| + nnz/b) shared operations.
type updateBatching struct {
	model *atomicfloat.Vector
	alpha float64
	b     int
}

// NewUpdateBatching returns the update-batching strategy with batch size
// b ≥ 1 (rejected at Bind otherwise). Steppers buffer up to b gradients
// locally; Run flushes the final partial batch via the Flusher extension.
func NewUpdateBatching(b int) Strategy { return &updateBatching{b: b} }

func (s *updateBatching) Name() string { return "update-batching" }

func (s *updateBatching) Bind(model *atomicfloat.Vector, alpha float64) error {
	if s.b <= 0 {
		return fmt.Errorf("%w: batch size %d (want ≥ 1)", ErrBadConfig, s.b)
	}
	s.model, s.alpha = model, alpha
	return nil
}

func (s *updateBatching) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	d := s.model.Dim()
	so, _ := grad.AsSparse(oracle)
	return &batchStepper{
		pipeline: newPipeline(s.model, s.alpha, oracle, so, r),
		b:        s.b,
		acc:      vec.NewDense(d),
		seen:     make([]bool, d),
	}, nil
}

type batchStepper struct {
	pipeline
	b int // batch size

	acc     vec.Dense  // local gradient accumulator (sum of buffered g̃)
	touched []int      // coordinates with buffered mass
	seen    []bool     // membership mask for touched
	pending int        // buffered gradients
	buf     vec.Sparse // flush scratch (the promised vec.Sparse buffer)
}

//asgd:hotpath
func (w *batchStepper) Step() int {
	ops := w.gradient()
	if w.so != nil {
		for k, j := range w.sg.Indices {
			w.accumulate(j, w.sg.Values[k])
		}
	} else {
		for j, gj := range w.g {
			if gj != 0 {
				w.accumulate(j, gj)
			}
		}
	}
	w.pending++
	if w.pending >= w.b {
		ops += w.Flush()
	}
	return ops
}

func (w *batchStepper) accumulate(j int, v float64) {
	if !w.seen[j] {
		w.seen[j] = true
		w.touched = append(w.touched, j)
	}
	w.acc[j] += v
}

// Flush scatters the buffered batch to the shared model in one fetch&add
// pass and returns the number of coordinate writes. It implements Flusher
// so Run applies a worker's final partial batch.
//
//asgd:hotpath
func (w *batchStepper) Flush() int {
	if w.pending == 0 {
		return 0
	}
	sort.Ints(w.touched)
	w.buf.Reset(len(w.acc))
	for _, j := range w.touched {
		w.buf.Append(j, w.acc[j])
		w.acc[j] = 0
		w.seen[j] = false
	}
	w.touched = w.touched[:0]
	w.pending = 0
	// touched was sorted above, so buf.Indices is ascending and dense
	// batches flush as whole coordinate runs.
	return scatterRuns(w.model, w.alpha, w.buf.Indices, w.buf.Values)
}

// --- epoch fence ------------------------------------------------------------

// epochFence fences the iteration stream into epochs of a fixed length:
// iteration t (in ticket order) belongs to epoch ⌊t/every⌋ and may take
// its view only after every iteration of earlier epochs has completed.
// Within an epoch the workers run lock-free; across epoch boundaries every
// view is a consistent snapshot containing all earlier epochs' updates —
// the real-goroutine analogue of FullSGD's per-epoch-model condition
// (hogwild.RunFull fences whole runs; this fences inside one run), which
// also caps staleness at every−1.
type epochFence struct {
	model *atomicfloat.Vector
	alpha float64
	every int
	win   stripedWindow
	obs   atomic.Int64
}

// NewEpochFence returns the epoch-fencing strategy with epoch length
// every ≥ 1 (rejected at Bind otherwise). The returned strategy
// implements StalenessBounded with bound every−1 (only same-epoch
// iterations can interleave).
func NewEpochFence(every int) Strategy { return &epochFence{every: every} }

func (s *epochFence) Name() string { return "epoch-fence" }

// TauBound implements StalenessBounded: at most every−1 same-epoch
// iterations can begin while one is in flight.
func (s *epochFence) TauBound() int { return s.every - 1 }

// ObservedMaxStaleness implements StalenessBounded.
func (s *epochFence) ObservedMaxStaleness() int { return int(s.obs.Load()) }

func (s *epochFence) Bind(model *atomicfloat.Vector, alpha float64) error {
	if s.every <= 0 {
		return fmt.Errorf("%w: epoch length %d (want ≥ 1)", ErrBadConfig, s.every)
	}
	s.model, s.alpha = model, alpha
	s.win.reset()
	s.obs.Store(0)
	return nil
}

func (s *epochFence) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	every := int64(s.every)
	return newGatedStepper(s.model, s.alpha, &s.win, &s.obs, oracle, r,
		func(t int64) int64 { return (t / every) * every }), nil
}
