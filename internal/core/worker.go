// Package core implements the paper's contribution: lock-free concurrent
// SGD in the asynchronous shared-memory model (Algorithm 1, "EpochSGD")
// and the epoch-doubling wrapper with guaranteed convergence (Algorithm 2,
// "FullSGD"), together with the learning-rate schedules of Theorem 3.1,
// Theorem 6.3 and Corollary 6.7.
//
// Memory layout inside the shm machine: register 0 is the shared iteration
// counter C; registers 1..d hold the model X. Each worker repeatedly
// claims an iteration with fetch&add on C, reads model coordinates into
// its (possibly inconsistent) view v, computes a stochastic gradient
// g̃(v), and applies −α·g̃[j] to each non-zero coordinate with fetch&add —
// exactly Algorithm 1. In the default dense mode the view read covers all
// d coordinates; in sparse mode (EpochConfig.Sparse, requiring a
// grad.SparseOracle) the worker reads only the gradient's announced
// support, so an iteration costs O(|support| + nnz) shared-memory steps.
package core

import (
	"sort"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// Memory layout constants.
const (
	// CounterAddr is the register holding the shared iteration counter C.
	CounterAddr = 0
	// ModelBase is the register index of model coordinate 0.
	ModelBase = 1
)

// IterRecord captures one completed SGD iteration for post-hoc analysis:
// the inconsistent view v the gradient was computed at, the applied update
// direction (the stochastic gradient g̃(v) for plain SGD; the local
// velocity under momentum), the effective step size (equal to α unless
// staleness-aware scaling is enabled), and the machine times tying it into
// the paper's total order (FirstUp orders iterations; Lemma 6.1).
//
// For sparse-mode iterations, View holds the read support's values with
// zeros elsewhere (the worker never read the other coordinates) and Grad
// is the materialized sparse gradient.
type IterRecord struct {
	Thread    int
	LocalIter int
	View      vec.Dense
	Grad      vec.Dense // applied direction; model delta is −AlphaEff·Grad
	AlphaEff  float64
	FirstUp   int // time of the first model fetch&add
	LastUp    int // time of the last model fetch&add
}

// recorder collects iteration records from all workers of one machine.
// The shm machine is sequential, so no locking is needed.
type recorder struct {
	records []IterRecord
}

// trackRecord is the part of a run's iteration record that only tracked
// runs keep, shared by every worker of the run: its[c] belongs to the
// iteration that claimed counter value c, and its Reads and Updates are
// carved from slab, so recording a step never allocates.
type trackRecord struct {
	its  []contention.Iter
	slab []contention.CoordTime
}

// newTrackRecord sizes the record for a budget of T claims on a
// d-dimensional model. The slab holds 2·T·d touches, enough for every
// iteration of a dense run to read and update every coordinate; sparse
// runs, which touch far fewer, start at 2·T and take a fresh chunk when
// one runs out.
func newTrackRecord(T, d int, sparse bool) *trackRecord {
	n := 2 * T
	if !sparse {
		n *= d
	}
	return &trackRecord{
		its:  make([]contention.Iter, T),
		slab: make([]contention.CoordTime, 0, n),
	}
}

// take carves an empty list with room for n touches from the slab.
func (r *trackRecord) take(n int) []contention.CoordTime {
	k := len(r.slab)
	if k+n > cap(r.slab) {
		r.slab = make([]contention.CoordTime, 0, max(n, 2*cap(r.slab)))
		k = 0
	}
	r.slab = r.slab[:k+n]
	return r.slab[k : k : k+n]
}

// worker phases: which operation the worker issued last.
type workerPhase uint8

const (
	phaseInit workerPhase = iota
	phaseCounter
	phaseGate // gated disciplines: wait for the done counter to reach the gate
	phaseRead
	phaseProbe // staleness probe: re-read the counter before updating
	phaseUpdate
	phasePubRead // gated disciplines: wait for the done counter to reach this claim
	phasePubFAA  // gated disciplines: publish this iteration's completion

	// Crash-recovery phases (EpochConfig.CrashRecovery). A blocked gate or
	// publish spin interleaves one failure-detector probe per cycle:
	phaseAnnounce     // the announce write of a fresh claim just executed
	phaseScanCrash    // read one peer's crash flag
	phaseScanAnnounce // peer is dead: read its announced claim
	phaseScanCAS      // announced claim is the stuck ticket: tombstone it
)

// workerOpts carries the optional algorithm extensions discussed in the
// paper's Section 8 — a local momentum term (the alternative mitigation
// the paper mentions via Mitliagkas et al.) and staleness-aware step
// scaling (Zhang et al. / Zheng et al.) — plus the synchronization
// disciplines mirrored from the real-thread runtime (hogwild's
// bounded-staleness, update-batching and epoch-fence strategies), so each
// discipline runs on both runtimes.
//
// The gated disciplines (stalenessBound, fenceEvery) share one shared
// register, the done counter at doneAddr: iterations publish their
// completions there *in claim order* (phasePubRead spins until the
// counter equals this iteration's claim, then phasePubFAA increments it),
// which makes the register a true low-water mark — done = c means every
// iteration claimed before c has fully applied its updates. The entry
// gate (phaseGate) spins on that register before taking a view, capping
// how many iterations can be in flight around any view.
type workerOpts struct {
	momentum     float64 // β: local heavy-ball momentum; 0 disables
	stalenessEta float64 // η: α_eff = α/(1+η·staleness); 0 disables

	stalenessBound int // τ ≥ 1: gate views on done ≥ claim−τ; 0 disables
	batch          int // b ≥ 1: buffer b gradients before one scatter pass; 0 disables
	fenceEvery     int // E ≥ 1: gate views on done ≥ ⌊claim/E⌋·E; 0 disables
	doneAddr       int // register of the shared done counter (gated disciplines)

	// Crash recovery (EpochConfig.CrashRecovery): gated workers announce
	// each claim in announce[id] = claimed+1 right after the claiming
	// fetch&add, and blocked spinners probe peers' crash flags (written by
	// the machine, shm.Config.CrashFlagBase) to tombstone orphaned tickets
	// on the done counter.
	recover      bool
	threads      int // thread count (probe round-robin modulus)
	announceBase int // register of thread 0's announce slot
	crashBase    int // register of thread 0's crash flag
}

// gated reports whether the worker runs behind a done-counter gate.
func (o workerOpts) gated() bool { return o.stalenessBound > 0 || o.fenceEvery > 0 }

// worker is the Algorithm-1 thread body as an explicit shm.Program state
// machine (no per-step goroutine handoff on the hot path).
type worker struct {
	id     int
	d      int
	alpha  float64
	budget int // T: shared iteration budget
	oracle grad.Oracle
	so     grad.SparseOracle // non-nil ⇒ sparse mode
	r      *rng.Rand
	rec    *recorder           // nil when recording disabled
	wins   []contention.Window // per-claim admission windows, shared by every worker of the run
	trk    *trackRecord        // the rest of the iteration record; nil unless tracked
	it     *contention.Iter    // the current claim's entry in trk; nil if none
	acc    vec.Dense           // local gradient accumulator (Algorithm 2 last epoch); nil when disabled
	opts   workerOpts

	phase    workerPhase
	iter     int // thread-local iteration number
	pos      int // index into reads / nz updates
	view     vec.Dense
	g        vec.Dense
	vel      vec.Dense  // momentum velocity (nil unless momentum > 0)
	plan     []int      // sparse mode: read support of the planned gradient
	svals    []float64  // sparse mode: gathered support values
	sg       vec.Sparse // sparse mode: the sparse gradient
	nz       []int      // indices of non-zero update entries
	nzv      []float64  // matching update values (the gradient entries)
	claimed  int        // counter value claimed by the current iteration
	alphaEff float64    // per-iteration effective step size

	batchAcc     vec.Dense // update-batching: local gradient accumulator
	batchTouched []int     // coordinates with buffered mass
	batchSeen    []bool    // membership mask for batchTouched
	batchPending int       // buffered gradients
	finishing    bool      // terminal batch flush in progress: terminate after updates
	coordOps     int64     // executed model-coordinate reads + updates

	// Crash-recovery probe state (opts.recover only).
	probeT    int         // round-robin peer cursor for crash-flag probes
	lastDone  int         // done-counter value observed by the blocked spin read
	scanA     int         // announced claim read from the probed dead peer
	resume    workerPhase // blocked phase to return to after a probe cycle
	recovered int64       // orphaned tickets this worker tombstoned

	cur IterRecord // record under construction
}

var _ shm.Program = (*worker)(nil)

func newWorker(id int, alpha float64, budget int, o grad.Oracle, sparse bool, r *rng.Rand, rec *recorder, wins []contention.Window, trk *trackRecord, accumulate bool, opts workerOpts) *worker {
	d := o.Dim()
	w := &worker{
		id:     id,
		d:      d,
		alpha:  alpha,
		budget: budget,
		oracle: o,
		r:      r,
		rec:    rec,
		wins:   wins,
		trk:    trk,
		opts:   opts,
		nz:     make([]int, 0, d),
		nzv:    make([]float64, 0, d),
	}
	if sparse {
		w.so, _ = grad.AsSparse(o)
		w.svals = make([]float64, 0, d)
	} else {
		w.view = vec.NewDense(d)
		w.g = vec.NewDense(d)
	}
	if accumulate {
		w.acc = vec.NewDense(d)
	}
	if opts.momentum > 0 {
		w.vel = vec.NewDense(d)
	}
	if opts.batch > 0 {
		w.batchAcc = vec.NewDense(d)
		w.batchSeen = make([]bool, d)
	}
	return w
}

// NextInto implements shm.Program, advancing the Algorithm-1 state
// machine by one shared-memory operation. The next request is written
// directly into *req (the machine's pending slot), so issuing an
// operation is a handful of stores — no Request copies on the hot path.
//
//asgd:hotpath
func (w *worker) NextInto(prev shm.Result, req *shm.Request) bool {
	switch w.phase {
	case phaseInit:
		return w.issueCounter(req)

	case phaseCounter:
		// prev.Val is the prior counter value: line 3 of Algorithm 1.
		if int(prev.Val) >= w.budget {
			w.it = nil // no claim: a terminal flush belongs to no iteration
			if w.opts.batch > 0 && w.batchPending > 0 {
				// The worker leaves, but its buffered gradients must reach
				// the model first (the Flusher hook of the real runtime).
				return w.terminalFlush(req)
			}
			return true
		}
		w.claimed = int(prev.Val)
		w.wins[w.claimed].Start = prev.Time
		if w.trk != nil {
			w.it = &w.trk.its[w.claimed]
			w.it.Thread, w.it.LocalIter = w.id, w.iter
		}
		if w.opts.gated() {
			if w.opts.recover {
				// Announce the claim before anything else, so a crash at
				// any later point leaves a reclaimable ticket.
				return w.issueAnnounce(req)
			}
			w.phase = phaseGate
			return w.issueGateRead(req)
		}
		return w.startIteration(req)

	case phaseAnnounce:
		w.phase = phaseGate
		return w.issueGateRead(req)

	case phaseGate:
		if int(prev.Val) >= w.gateMin() {
			return w.startIteration(req)
		}
		if w.opts.recover {
			return w.issueCrashProbe(prev, phaseGate, req)
		}
		return w.issueGateRead(req) // still blocked: spin on the done counter

	case phaseRead:
		w.coordOps++ // prev is the result of one executed view read
		if w.pos == 0 {
			w.wins[w.claimed].FirstRead = prev.Time
		}
		if w.it != nil {
			// *req still holds the read prev answers (shm.Program).
			w.it.Reads = append(w.it.Reads, contention.CoordTime{Coord: req.Tag.Coord, Time: prev.Time})
		}
		if w.so != nil {
			w.svals = append(w.svals, prev.Val)
			w.pos++
			if w.pos < len(w.plan) {
				return w.issueRead(req)
			}
		} else {
			w.view[w.pos] = prev.Val
			w.pos++
			if w.pos < w.d {
				return w.issueRead(req)
			}
		}
		return w.gradReady(req)

	case phaseProbe:
		staleness := int(prev.Val) - w.claimed - 1
		if staleness < 0 {
			staleness = 0
		}
		w.alphaEff = w.alpha / (1 + w.opts.stalenessEta*float64(staleness))
		return w.beginUpdates(req)

	case phaseUpdate:
		w.coordOps++ // prev is the result of one executed model fetch&add
		if w.it != nil {
			if req.Tag.First {
				w.it.FirstUp = prev.Time
			}
			w.it.Updates = append(w.it.Updates, contention.CoordTime{Coord: req.Tag.Coord, Time: prev.Time})
		}
		if w.rec != nil {
			if w.pos == 1 { // result of the first update just arrived
				w.cur.FirstUp = prev.Time
			}
			w.cur.LastUp = prev.Time
		}
		if w.pos < len(w.nz) {
			return w.issueUpdate(req)
		}
		// Iteration finished (its last update's result is prev).
		if w.rec != nil {
			w.rec.records = append(w.rec.records, w.cur)
		}
		if w.finishing {
			// A terminal flush's updates belong to no claimed iteration.
			return true
		}
		w.wins[w.claimed].End = prev.Time
		return w.endIteration(req)

	case phasePubRead:
		if int(prev.Val) >= w.claimed {
			w.phase = phasePubFAA
			*req = shm.Request{
				Kind: shm.OpFAA,
				Addr: w.opts.doneAddr,
				Val:  1,
				Tag: contention.Tag{
					Thread: w.id, Iter: w.iter, Role: contention.RoleGate,
					Coord: w.claimed,
				},
			}
			return false
		}
		if w.opts.recover {
			return w.issueCrashProbe(prev, phasePubRead, req)
		}
		return w.issuePubRead(req) // predecessors unpublished: spin

	case phasePubFAA:
		w.iter++
		return w.issueCounter(req)

	case phaseScanCrash:
		if prev.Val != 0 {
			// Peer probeT is dead: read what it announced.
			w.phase = phaseScanAnnounce
			*req = shm.Request{
				Kind: shm.OpRead,
				Addr: w.opts.announceBase + w.probeT,
				Tag: contention.Tag{
					Thread: w.id, Iter: w.iter, Role: contention.RoleProbe,
					Coord: w.probeT,
				},
			}
			return false
		}
		return w.probeDone(req)

	case phaseScanAnnounce:
		w.scanA = int(prev.Val)
		if w.scanA > 0 && w.scanA-1 == w.lastDone {
			// The dead peer's announced claim is exactly the stuck done
			// value: its ticket is the orphan pinning the gate. Tombstone
			// it. The CAS is exactly-once across all survivors — done is
			// monotone, so only one CAS from scanA−1 to scanA can succeed,
			// and a stale announce (the peer had already published) can
			// never match the current done value again.
			w.phase = phaseScanCAS
			*req = shm.Request{
				Kind: shm.OpCAS,
				Addr: w.opts.doneAddr,
				Exp:  float64(w.scanA - 1),
				Val:  float64(w.scanA),
				Tag: contention.Tag{
					Thread: w.id, Iter: w.iter, Role: contention.RoleGate,
					Coord: w.scanA,
				},
			}
			return false
		}
		return w.probeDone(req)

	case phaseScanCAS:
		if prev.OK {
			w.recovered++
		}
		return w.probeDone(req)

	default:
		return true
	}
}

// issueAnnounce publishes the fresh claim in this worker's announce slot
// (stored +1 so the zero register means "never claimed").
func (w *worker) issueAnnounce(req *shm.Request) bool {
	w.phase = phaseAnnounce
	*req = shm.Request{
		Kind: shm.OpWrite,
		Addr: w.opts.announceBase + w.id,
		Val:  float64(w.claimed + 1),
		Tag: contention.Tag{
			Thread: w.id, Iter: w.iter, Role: contention.RoleGate,
			Coord: w.claimed,
		},
	}
	return false
}

// issueCrashProbe starts one failure-detector probe cycle from a blocked
// spin read: remember the stuck done value and the phase to resume, pick
// the next peer round-robin, and read its crash flag.
func (w *worker) issueCrashProbe(prev shm.Result, resume workerPhase, req *shm.Request) bool {
	w.lastDone = int(prev.Val)
	w.resume = resume
	w.probeT = (w.probeT + 1) % w.opts.threads
	if w.probeT == w.id {
		w.probeT = (w.probeT + 1) % w.opts.threads
	}
	w.phase = phaseScanCrash
	*req = shm.Request{
		Kind: shm.OpRead,
		Addr: w.opts.crashBase + w.probeT,
		Tag: contention.Tag{
			Thread: w.id, Iter: w.iter, Role: contention.RoleProbe,
			Coord: w.probeT,
		},
	}
	return false
}

// probeDone closes a probe cycle and re-issues the blocked spin read.
func (w *worker) probeDone(req *shm.Request) bool {
	w.phase = w.resume
	if w.resume == phaseGate {
		return w.issueGateRead(req)
	}
	return w.issuePubRead(req)
}

// startIteration runs once the iteration's claim (and, for gated
// disciplines, its gate) is through: draw the sparse plan and issue the
// first view read, or evaluate immediately on an empty read support.
func (w *worker) startIteration(req *shm.Request) bool {
	w.pos = 0
	n := w.d
	if w.so != nil {
		w.plan = w.so.PlanSparse(w.r)
		w.svals = w.svals[:0]
		if len(w.plan) == 0 {
			// The planned gradient reads nothing: evaluate immediately
			// (it may still be non-zero only on an empty support, i.e.
			// identically zero) and move on.
			return w.gradReady(req)
		}
		n = len(w.plan)
	}
	if w.it != nil {
		w.it.Reads = w.trk.take(n)
	}
	w.phase = phaseRead
	return w.issueRead(req)
}

// endIteration closes the iteration: gated disciplines publish their
// completion on the done counter (in claim order) before claiming the
// next iteration; everything else claims directly.
func (w *worker) endIteration(req *shm.Request) bool {
	if w.opts.gated() {
		w.phase = phasePubRead
		return w.issuePubRead(req)
	}
	w.iter++
	return w.issueCounter(req)
}

// gateMin returns the done-counter value the current claim must wait for:
// claim−τ under bounded staleness (no view may miss more than τ
// predecessors), the start of the claim's epoch under fencing (a view
// must contain every earlier epoch's updates).
func (w *worker) gateMin() int {
	if w.opts.stalenessBound > 0 {
		m := w.claimed - w.opts.stalenessBound
		if m < 0 {
			m = 0
		}
		return m
	}
	return (w.claimed / w.opts.fenceEvery) * w.opts.fenceEvery
}

func (w *worker) issueGateRead(req *shm.Request) bool {
	*req = shm.Request{
		Kind: shm.OpRead,
		Addr: w.opts.doneAddr,
		Tag: contention.Tag{
			Thread: w.id, Iter: w.iter, Role: contention.RoleGate,
			Coord: w.gateMin(),
		},
	}
	return false
}

func (w *worker) issuePubRead(req *shm.Request) bool {
	*req = shm.Request{
		Kind: shm.OpRead,
		Addr: w.opts.doneAddr,
		Tag: contention.Tag{
			Thread: w.id, Iter: w.iter, Role: contention.RoleGate,
			Coord: w.claimed,
		},
	}
	return false
}

// gradReady runs once the view (dense) or support values (sparse) are
// complete: generate the stochastic gradient (line 5), fold momentum,
// snapshot the record, and either probe the counter (staleness-aware
// extension) or begin the updates.
func (w *worker) gradReady(req *shm.Request) bool {
	if w.so != nil {
		w.so.GradSparseAt(&w.sg, w.svals, w.r)
	} else {
		w.oracle.Grad(w.g, w.view, w.r)
		if w.vel != nil {
			w.vel.Scale(w.opts.momentum)
			_ = w.vel.Add(w.g)
			copy(w.g, w.vel)
		}
	}
	w.alphaEff = w.alpha
	if w.rec != nil {
		w.cur = IterRecord{Thread: w.id, LocalIter: w.iter}
		if w.so != nil {
			view := vec.NewDense(w.d)
			for k, j := range w.plan {
				view[j] = w.svals[k]
			}
			w.cur.View = view
			w.cur.Grad = w.sg.ToDense()
		} else {
			w.cur.View = w.view.Clone()
			w.cur.Grad = w.g.Clone()
		}
	}
	if w.opts.stalenessEta > 0 {
		// Staleness-aware mitigation: one extra shared-memory read of
		// the iteration counter to estimate how stale this gradient
		// already is, before scaling the step size.
		w.phase = phaseProbe
		*req = shm.Request{
			Kind: shm.OpRead,
			Addr: CounterAddr,
			Tag: contention.Tag{
				Thread: w.id, Iter: w.iter, Role: contention.RoleProbe,
			},
		}
		return false
	}
	return w.beginUpdates(req)
}

// beginUpdates finalizes the iteration's applied direction and effective
// step, records bookkeeping, and issues the first model update (or skips
// straight to the next iteration on a zero direction).
func (w *worker) beginUpdates(req *shm.Request) bool {
	w.nz = w.nz[:0]
	w.nzv = w.nzv[:0]
	if w.so != nil {
		w.nz = append(w.nz, w.sg.Indices...)
		w.nzv = append(w.nzv, w.sg.Values...)
		if w.acc != nil {
			_ = w.sg.AddScaledInto(w.acc, -w.alphaEff)
		}
	} else {
		for j, v := range w.g {
			if v != 0 {
				w.nz = append(w.nz, j)
				w.nzv = append(w.nzv, v)
			}
		}
		if w.acc != nil {
			_ = w.acc.AddScaled(-w.alphaEff, w.g)
		}
	}
	if w.opts.batch > 0 {
		return w.bufferIntoBatch(req)
	}
	if w.rec != nil {
		w.cur.AlphaEff = w.alphaEff
	}
	if len(w.nz) == 0 {
		// Zero direction: nothing to apply; the iteration contributes
		// the identity update and is not ordered (no fetch&add).
		return w.endIteration(req)
	}
	return w.beginUpdatePass(req)
}

// bufferIntoBatch folds the fresh direction nz/nzv into the worker-local
// batch accumulator (the same arithmetic, in the same coordinate order,
// as the real runtime's batch stepper) and scatters the whole batch with
// one fetch&add pass every opts.batch gradients.
func (w *worker) bufferIntoBatch(req *shm.Request) bool {
	for k, j := range w.nz {
		w.batchAdd(j, w.nzv[k])
	}
	w.batchPending++
	if w.batchPending < w.opts.batch {
		// Not full yet: no shared updates, so the iteration is not
		// ordered (like a zero direction); its mass rides in the flush.
		w.iter++
		return w.issueCounter(req)
	}
	w.materializeBatch()
	if w.rec != nil {
		// The flushing iteration's applied direction is the whole batch;
		// recording it (rather than its own gradient) keeps the
		// Accumulators/HitTime reconstruction exact.
		w.cur.AlphaEff = w.alphaEff
		w.cur.Grad = w.batchDense()
	}
	if len(w.nz) == 0 {
		w.iter++
		return w.issueCounter(req)
	}
	return w.beginUpdatePass(req)
}

func (w *worker) batchAdd(j int, v float64) {
	if !w.batchSeen[j] {
		w.batchSeen[j] = true
		w.batchTouched = append(w.batchTouched, j)
	}
	w.batchAcc[j] += v
}

// materializeBatch moves the buffered batch into nz/nzv (sorted by
// coordinate) and resets the accumulator.
func (w *worker) materializeBatch() {
	sort.Ints(w.batchTouched)
	w.nz = w.nz[:0]
	w.nzv = w.nzv[:0]
	for _, j := range w.batchTouched {
		if v := w.batchAcc[j]; v != 0 {
			w.nz = append(w.nz, j)
			w.nzv = append(w.nzv, v)
		}
		w.batchAcc[j] = 0
		w.batchSeen[j] = false
	}
	w.batchTouched = w.batchTouched[:0]
	w.batchPending = 0
}

// batchDense materializes the just-materialized batch as a dense vector
// (for iteration records).
func (w *worker) batchDense() vec.Dense {
	g := vec.NewDense(w.d)
	for k, j := range w.nz {
		g[j] = w.nzv[k]
	}
	return g
}

// terminalFlush applies the worker's final partial batch after its
// closing counter claim landed beyond the budget, then terminates.
func (w *worker) terminalFlush(req *shm.Request) bool {
	w.materializeBatch()
	if len(w.nz) == 0 {
		return true
	}
	w.finishing = true
	w.alphaEff = w.alpha
	if w.rec != nil {
		// The flush's updates belong to gradients of earlier iterations;
		// record them under the current (unclaimed) local iteration with
		// an empty view so the accumulator reconstruction stays exact.
		w.cur = IterRecord{
			Thread:    w.id,
			LocalIter: w.iter,
			View:      vec.NewDense(w.d),
			Grad:      w.batchDense(),
			AlphaEff:  w.alphaEff,
		}
	}
	return w.beginUpdatePass(req)
}

// beginUpdatePass issues the first fetch&add over nz, after making room
// for the updates in the current claim's record entry, if any.
func (w *worker) beginUpdatePass(req *shm.Request) bool {
	if w.it != nil {
		w.it.Updates = w.trk.take(len(w.nz))
	}
	w.pos = 0
	w.phase = phaseUpdate
	return w.issueUpdate(req)
}

func (w *worker) issueCounter(req *shm.Request) bool {
	w.phase = phaseCounter
	*req = shm.Request{
		Kind: shm.OpFAA,
		Addr: CounterAddr,
		Val:  1,
		Tag: contention.Tag{
			Thread: w.id, Iter: w.iter, Role: contention.RoleCounter,
		},
	}
	return false
}

// issueRead issues the view read at w.pos. After the iteration's first
// read, *req still holds this worker's previous read of the same
// iteration (shm.Program's NextInto contract), so only the coordinate
// fields are rewritten.
func (w *worker) issueRead(req *shm.Request) bool {
	j := w.pos
	if w.so != nil {
		j = w.plan[w.pos]
	}
	if w.pos > 0 {
		req.Addr = ModelBase + j
		req.Tag.Coord = j
		return false
	}
	*req = shm.Request{
		Kind: shm.OpRead,
		Addr: ModelBase + j,
		Tag: contention.Tag{
			Thread: w.id, Iter: w.iter, Role: contention.RoleRead, Coord: j,
		},
	}
	return false
}

// issueUpdate issues the model fetch&add at w.pos; like issueRead, every
// update after the iteration's first rewrites only the fields that change.
func (w *worker) issueUpdate(req *shm.Request) bool {
	j, val := w.nz[w.pos], -w.alphaEff*w.nzv[w.pos]
	first := w.pos == 0
	w.pos++
	last := w.pos == len(w.nz)
	if !first {
		req.Addr = ModelBase + j
		req.Val = val
		req.Tag.Coord = j
		req.Tag.First = false
		req.Tag.Last = last
		return false
	}
	*req = shm.Request{
		Kind: shm.OpFAA,
		Addr: ModelBase + j,
		Val:  val,
		Tag: contention.Tag{
			Thread: w.id, Iter: w.iter, Role: contention.RoleUpdate,
			Coord: j, First: true, Last: last,
		},
	}
	return false
}
