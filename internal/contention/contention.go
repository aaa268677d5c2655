// Package contention implements the iteration-level bookkeeping of the
// paper's Sections 2 and 6: interval contention ρ(θ), its maximum τmax and
// average τavg, per-iteration view staleness τ_t under the total order "t
// is the t-th iteration to perform its first model fetch&add" (Lemma 6.1),
// the bad/good iteration counting of Lemma 6.2, and the delay-indicator
// sums of Lemma 6.4.
//
// It also names Tag, the annotation attached by SGD thread programs to
// their shared-memory operations. Tags are visible to scheduling policies
// (the strong adversary knows the role of every pending operation) and are
// interpreted by Tracker.Observe to reconstruct iteration timelines. The
// concrete struct lives in internal/shm — embedded by value in shm.Request
// so issuing a tagged operation allocates nothing — and is aliased here,
// where its vocabulary is documented and interpreted.
package contention

import (
	"cmp"
	"slices"
	"sort"

	"asyncsgd/internal/shm"
)

// Role classifies an SGD thread's shared-memory operation within one
// iteration of Algorithm 1. It aliases shm.Role; the zero value marks an
// untagged operation.
type Role = shm.Role

// Operation roles. RoleCounter is the iteration-claiming fetch&add on the
// shared counter C; RoleRead is a read of one model coordinate while
// assembling the view v_t; RoleUpdate is the fetch&add applying one
// gradient coordinate.
const (
	RoleCounter = shm.RoleCounter
	RoleRead    = shm.RoleRead
	RoleUpdate  = shm.RoleUpdate
	// RoleProbe marks an auxiliary read of the iteration counter used by
	// staleness-aware workers to estimate their own delay; it is not part
	// of the Algorithm-1 iteration structure and is ignored by the
	// tracker.
	RoleProbe = shm.RoleProbe
	// RoleGate marks the synchronization operations of the gated
	// disciplines (bounded staleness, epoch fencing): reads of the shared
	// done-counter while waiting at the entry gate or waiting to publish a
	// completion, and the publishing fetch&add itself. For gate reads,
	// Tag.Coord carries the done-counter threshold the worker is waiting
	// for, so an adversary can tell a blocked thread from a passable one.
	// Like RoleProbe it is not part of the Algorithm-1 iteration structure
	// and is ignored by the tracker.
	RoleGate = shm.RoleGate
)

// Tag annotates one shared-memory operation with its place in the SGD
// execution. Thread is the issuing thread; Iter is the thread-local
// iteration number (0-based); Coord is the model coordinate for reads and
// updates; First/Last mark the first and last model update of the
// iteration (First defines the paper's total order on iterations). It
// aliases shm.Tag, the concrete annotation embedded in shm.Request.
type Tag = shm.Tag

// coordTime is one touched coordinate with the machine time of the touch.
// Iterations store their reads and updates as coordTime lists — the same
// sparse index/value representation the update pipeline uses — so an
// iteration costs O(touched) tracker memory, not O(d).
type coordTime struct{ coord, time int }

// iter is the record of one SGD iteration's timeline.
type iter struct {
	thread      int
	localIter   int
	startTime   int         // counter fetch&add time (iteration start)
	firstUpTime int         // first model update time (0 if none yet)
	endTime     int         // last model update time (0 if incomplete)
	reads       []coordTime // touched-coordinate read times, in read order
	updates     []coordTime // touched-coordinate update times, in update order
	orderIdx    int         // 1-based paper order; 0 until assigned in Finalize
}

// readTimeOf returns the time it read coord (0 if it never did). Both
// worker pipelines read coordinates in strictly increasing order (the
// dense path scans 0..d−1; PlanSparse supports are increasing), so the
// list is searchable.
func (it *iter) readTimeOf(coord int) int {
	k := sort.Search(len(it.reads), func(i int) bool {
		return it.reads[i].coord >= coord
	})
	if k < len(it.reads) && it.reads[k].coord == coord {
		return it.reads[k].time
	}
	return 0
}

// Tracker accumulates iteration timelines during a run and computes the
// paper's contention statistics afterwards. Create with NewTracker, feed
// with Begin/Read/Update/End (or Observe), then call Finalize once. The
// staleness sequence behind Taus, TauMaxView and DelayIndicatorMax is
// computed on the first call to one of them, not by Finalize, since most
// consumers never read it.
// Tracker is not safe for concurrent use; the shm machine is sequential.
//
// The record path is allocation-free in steady state: iterations are
// looked up through per-thread dense tables (thread-local iteration
// numbers are sequential, so byThread[thread][localIter] replaces a
// map[[2]int]int lookup and its hashing on every observed step), and
// retired iter records — including their reads/updates slices — are
// recycled through an internal free list when the tracker is Reset for
// the next epoch.
type Tracker struct {
	d        int
	iters    []*iter
	byThread [][]int32 // byThread[thread][localIter] -> index into iters (-1 absent)
	recPool  []*iter   // retired records for reuse across Reset cycles
	final    bool
	clockS   int // latest observed time, for incomplete iterations

	ordered   []*iter // populated by Finalize: complete iterations in paper order
	taus      []int   // taus[t-1] = τ_t for ordered iteration t (1-based)
	tausReady bool    // taus holds computeTaus's result for ordered
}

// NewTracker returns a tracker for a model of dimension d.
func NewTracker(d int) *Tracker {
	return &Tracker{d: d}
}

// Reset returns the tracker to its initial state for a model of dimension
// d, retiring every iteration record (and its touched-coordinate slices)
// into an internal pool for reuse. A run loop that tracks many epochs can
// therefore reuse one Tracker with zero amortized allocations on the
// record path.
func (tr *Tracker) Reset(d int) {
	for _, it := range tr.iters {
		it.reads = it.reads[:0]
		it.updates = it.updates[:0]
		*it = iter{reads: it.reads, updates: it.updates}
	}
	tr.recPool = append(tr.recPool, tr.iters...)
	tr.iters = tr.iters[:0]
	for i := range tr.byThread {
		tr.byThread[i] = tr.byThread[i][:0]
	}
	tr.ordered = tr.ordered[:0]
	tr.taus = tr.taus[:0]
	tr.tausReady = false
	tr.final = false
	tr.clockS = 0
	tr.d = d
}

// newIter returns a zeroed iteration record, reusing a retired one (with
// its slice capacity) when available.
func (tr *Tracker) newIter() *iter {
	if n := len(tr.recPool); n > 0 {
		it := tr.recPool[n-1]
		tr.recPool = tr.recPool[:n-1]
		return it
	}
	return &iter{}
}

// Begin records the start (counter fetch&add) of iteration localIter of
// thread at the given machine time.
func (tr *Tracker) Begin(thread, localIter, time int) {
	if thread < 0 || localIter < 0 {
		return
	}
	it := tr.newIter()
	it.thread = thread
	it.localIter = localIter
	it.startTime = time
	idx := int32(len(tr.iters))
	tr.iters = append(tr.iters, it)
	for thread >= len(tr.byThread) {
		tr.byThread = append(tr.byThread, nil)
	}
	tbl := tr.byThread[thread]
	switch {
	case localIter == len(tbl): // the sequential common case: plain append
		tbl = append(tbl, idx)
	case localIter < len(tbl): // re-Begin: point at the fresh record
		tbl[localIter] = idx
	default: // gap (never produced by the workers): pad with absent slots
		for len(tbl) < localIter {
			tbl = append(tbl, -1)
		}
		tbl = append(tbl, idx)
	}
	tr.byThread[thread] = tbl
	tr.touch(time)
}

// Read records that the iteration read model coordinate coord at time.
// The reads list is kept sorted by coordinate (both worker pipelines
// already read in increasing order, so the common case is an append).
func (tr *Tracker) Read(thread, localIter, coord, time int) {
	it := tr.get(thread, localIter)
	if it == nil {
		return
	}
	if n := len(it.reads); n > 0 && it.reads[n-1].coord >= coord {
		k := sort.Search(n, func(i int) bool { return it.reads[i].coord >= coord })
		if k < n && it.reads[k].coord == coord {
			it.reads[k].time = time // re-read: keep the latest
		} else {
			it.reads = append(it.reads, coordTime{})
			copy(it.reads[k+1:], it.reads[k:])
			it.reads[k] = coordTime{coord, time}
		}
	} else {
		it.reads = append(it.reads, coordTime{coord, time})
	}
	tr.touch(time)
}

// Update records a model fetch&add on coord at time. first marks the
// iteration's first model update (the ordering marker).
func (tr *Tracker) Update(thread, localIter, coord, time int, first bool) {
	if it := tr.get(thread, localIter); it != nil {
		it.updates = append(it.updates, coordTime{coord, time})
		if first || it.firstUpTime == 0 {
			it.firstUpTime = time
		}
		tr.touch(time)
	}
}

// End records the completion (last model update) of the iteration at time.
func (tr *Tracker) End(thread, localIter, time int) {
	if it := tr.get(thread, localIter); it != nil {
		it.endTime = time
		tr.touch(time)
	}
}

func (tr *Tracker) get(thread, localIter int) *iter {
	if thread < 0 || thread >= len(tr.byThread) {
		return nil
	}
	tbl := tr.byThread[thread]
	if localIter < 0 || localIter >= len(tbl) || tbl[localIter] < 0 {
		return nil
	}
	return tr.iters[tbl[localIter]]
}

func (tr *Tracker) touch(time int) {
	if time > tr.clockS {
		tr.clockS = time
	}
}

// Iterations returns the number of iterations that started.
func (tr *Tracker) Iterations() int { return len(tr.iters) }

// Completed returns the number of iterations that finished their last
// model update.
func (tr *Tracker) Completed() int {
	c := 0
	for _, it := range tr.iters {
		if it.endTime > 0 {
			c++
		}
	}
	return c
}

// Finalize orders completed iterations by first model update (the paper's
// total order). It must be called once, after the run; the staleness
// values are computed later, on first use (see staleness).
func (tr *Tracker) Finalize() {
	if tr.final {
		return
	}
	tr.final = true
	for _, it := range tr.iters {
		if it.firstUpTime > 0 && it.endTime > 0 {
			tr.ordered = append(tr.ordered, it)
		}
	}
	sort.Slice(tr.ordered, func(a, b int) bool {
		return tr.ordered[a].firstUpTime < tr.ordered[b].firstUpTime
	})
	for i, it := range tr.ordered {
		it.orderIdx = i + 1
	}
}

// staleness returns τ_1..τ_T. On a finalized tracker the first call runs
// computeTaus and the result is memoised until Reset; a tracker that was
// never finalized returns taus as it stands.
func (tr *Tracker) staleness() []int {
	if tr.final && !tr.tausReady {
		tr.computeTaus()
		tr.tausReady = true
	}
	return tr.taus
}

// computeTaus evaluates τ_t for every ordered iteration t: the number of
// most-recent predecessors spanning back to the oldest predecessor whose
// update is missing from t's view, i.e. τ_t = t − m_t where m_t is the
// smallest order index whose update some read of t missed (0 if none).
//
// An update of iteration t' on coordinate j is missed by t when t' updated
// j after t read j. A prefix-max over completion times prunes the scan:
// iterations that completed before t's earliest read are fully visible.
func (tr *Tracker) computeTaus() {
	n := len(tr.ordered)
	if cap(tr.taus) < n {
		tr.taus = make([]int, n)
	} else {
		tr.taus = tr.taus[:n]
		for i := range tr.taus {
			tr.taus[i] = 0
		}
	}
	if n == 0 {
		return
	}
	prefMaxEnd := make([]int, n+1) // prefMaxEnd[k] = max endTime of ordered[0..k-1]
	for i, it := range tr.ordered {
		prefMaxEnd[i+1] = max(prefMaxEnd[i], it.endTime)
	}
	for t := 1; t <= n; t++ {
		it := tr.ordered[t-1]
		minRead := 0
		for _, ct := range it.reads {
			if ct.time > 0 && (minRead == 0 || ct.time < minRead) {
				minRead = ct.time
			}
		}
		if minRead == 0 {
			continue // no reads recorded; treat as fully fresh
		}
		// Smallest k (1-based) with prefMaxEnd[k] >= minRead: candidates
		// for missed updates start at k; everything before is visible.
		k := sort.Search(t-1, func(i int) bool {
			return prefMaxEnd[i+1] >= minRead
		}) + 1
		mt := 0
		for cand := k; cand <= t-1; cand++ {
			pred := tr.ordered[cand-1]
			if pred.endTime < minRead {
				continue
			}
			if tr.missed(it, pred) {
				mt = cand
				break
			}
		}
		if mt > 0 {
			tr.taus[t-1] = t - mt
		}
	}
}

// missed reports whether iteration cur's view is missing any update of
// predecessor pred. Both touched sets are small (O(nnz)), so the nested
// scan beats materializing dense per-coordinate arrays.
func (tr *Tracker) missed(cur, pred *iter) bool {
	for _, u := range pred.updates {
		if r := cur.readTimeOf(u.coord); r > 0 && u.time > r {
			return true
		}
	}
	return false
}

// Taus returns the staleness sequence τ_1..τ_T over ordered iterations,
// computing it on the first call after Finalize (which must have been
// called). The slice is owned by the tracker and reused after Reset.
func (tr *Tracker) Taus() []int { return tr.staleness() }

// Window is one claimed iteration's admission window, in machine times:
// Start is its counter claim, FirstRead its first view read and End its
// last model update. FirstRead is 0 for an iteration that read nothing,
// End is 0 for one that did not complete, and the zero Window is an
// iteration that was never claimed.
type Window struct{ Start, FirstRead, End int }

// MaxAdmissions returns the maximum, over completed iterations, of the
// number of newer iterations (by claim order) whose view phase began
// while the iteration was still in flight (between its own first view
// read and its last model update). This is the staleness quantity the
// gated disciplines provably control — a bounded-staleness gate admits at
// most τ newer iterations while any iteration is unpublished, and an
// epoch fence admits only same-epoch ones — and the machine counterpart
// of the real runtime's observed-staleness gauge (hogwild's
// StalenessBounded, whose ticket issuance is the gate admission).
// Claims parked *before* the gate do not count: a claimed-but-unadmitted
// iteration has read nothing, so no view can be stale relative to it.
//
// It sorts ws by FirstRead in place. Cost is O(n · overlap); use on gated
// runs, where the gate bounds the overlap.
func MaxAdmissions(ws []Window) int {
	slices.SortFunc(ws, func(a, b Window) int { return cmp.Compare(a.FirstRead, b.FirstRead) })
	m := 0
	for i, w := range ws {
		if w.FirstRead == 0 || w.End == 0 {
			// Empty read support: nothing can interleave a view. Windows
			// with FirstRead 0 sort first, so none is counted below.
			continue
		}
		count := 0
		for j := i + 1; j < len(ws) && ws[j].FirstRead < w.End; j++ {
			if ws[j].Start > w.Start {
				count++
			}
		}
		if count > m {
			m = count
		}
	}
	return m
}

// MaxAdmissionsDuring is MaxAdmissions over the tracked iterations.
func (tr *Tracker) MaxAdmissionsDuring() int {
	ws := make([]Window, 0, len(tr.iters))
	for _, it := range tr.iters {
		fr := 0
		for _, ct := range it.reads {
			if ct.time > 0 && (fr == 0 || ct.time < fr) {
				fr = ct.time
			}
		}
		ws = append(ws, Window{it.startTime, fr, it.endTime})
	}
	return MaxAdmissions(ws)
}

// TauMaxView returns max_t τ_t, the maximum view staleness.
func (tr *Tracker) TauMaxView() int {
	m := 0
	for _, v := range tr.staleness() {
		if v > m {
			m = v
		}
	}
	return m
}

// IntervalContentions returns ρ(θ) for every started iteration θ: the
// number of other iterations whose [start, end] interval overlaps θ's.
// Incomplete iterations are treated as ending at the last observed time.
func (tr *Tracker) IntervalContentions() []int {
	n := len(tr.iters)
	starts := make([]int, n)
	ends := make([]int, n)
	for i, it := range tr.iters {
		starts[i] = it.startTime
		e := it.endTime
		if e == 0 {
			e = tr.clockS
		}
		ends[i] = e
	}
	sortedStarts := append([]int(nil), starts...)
	sortedEnds := append([]int(nil), ends...)
	sort.Ints(sortedStarts)
	sort.Ints(sortedEnds)
	rho := make([]int, n)
	for i := range tr.iters {
		// overlap count = #(start <= end_i) - #(end < start_i) - 1 (self)
		a := sort.SearchInts(sortedStarts, ends[i]+1)
		b := sort.SearchInts(sortedEnds, starts[i])
		rho[i] = a - b - 1
	}
	return rho
}

// TauMax returns the maximum interval contention over all iterations (the
// paper's τmax). Zero if no iterations ran.
func (tr *Tracker) TauMax() int {
	m := 0
	for _, r := range tr.IntervalContentions() {
		if r > m {
			m = r
		}
	}
	return m
}

// TauAvg returns the average interval contention (the paper's τavg).
func (tr *Tracker) TauAvg() float64 {
	rho := tr.IntervalContentions()
	if len(rho) == 0 {
		return 0
	}
	s := 0
	for _, r := range rho {
		s += r
	}
	return float64(s) / float64(len(rho))
}

// TouchedContentions restricts the Ω-overlap behind ρ(θ) to actual data
// conflicts: for every started iteration it counts the other iterations
// that both overlap it in time AND update at least one common coordinate.
// For dense updates every overlapping pair conflicts and this coincides
// with IntervalContentions; for sparse updates it measures the contention
// the paper's per-coordinate fetch&add semantics actually see.
func (tr *Tracker) TouchedContentions() []int {
	n := len(tr.iters)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	ends := make([]int, n)
	byCoord := make(map[int][]int) // coord -> indices of iterations updating it
	for i, it := range tr.iters {
		e := it.endTime
		if e == 0 {
			e = tr.clockS
		}
		ends[i] = e
		seen := -1
		for _, u := range it.updates {
			if u.coord == seen { // consecutive duplicates (re-updates) are rare
				continue
			}
			seen = u.coord
			byCoord[u.coord] = append(byCoord[u.coord], i)
		}
	}
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for i, it := range tr.iters {
		for _, u := range it.updates {
			for _, j := range byCoord[u.coord] {
				if j == i || stamp[j] == i {
					continue
				}
				stamp[j] = i
				other := tr.iters[j]
				if other.startTime <= ends[i] && it.startTime <= ends[j] {
					out[i]++
				}
			}
		}
	}
	return out
}

// TauMaxTouched returns the maximum touched-coordinate contention — the
// sparse-aware counterpart of TauMax.
func (tr *Tracker) TauMaxTouched() int {
	m := 0
	for _, r := range tr.TouchedContentions() {
		if r > m {
			m = r
		}
	}
	return m
}

// TauAvgTouched returns the average touched-coordinate contention.
func (tr *Tracker) TauAvgTouched() float64 {
	rho := tr.TouchedContentions()
	if len(rho) == 0 {
		return 0
	}
	s := 0
	for _, r := range rho {
		s += r
	}
	return float64(s) / float64(len(rho))
}

// MaxIncomplete returns the maximum, over time, of the number of
// simultaneously incomplete iterations — iterations that performed their
// first model update but not their last. Lemma 6.1 asserts this never
// exceeds the number of threads n.
func (tr *Tracker) MaxIncomplete() int {
	type ev struct{ t, delta int }
	var evs []ev
	for _, it := range tr.iters {
		if it.firstUpTime == 0 {
			continue
		}
		evs = append(evs, ev{it.firstUpTime, +1})
		if it.endTime > 0 {
			// An iteration with a single update is momentarily incomplete
			// only at its own step; end strictly after first.
			evs = append(evs, ev{it.endTime + 1, -1})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].delta < evs[b].delta // apply -1 before +1 at ties
	})
	cur, maxC := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > maxC {
			maxC = cur
		}
	}
	return maxC
}

// MaxBadCompletions evaluates the quantity bounded by Lemma 6.2: for every
// interval I during which exactly K·n consecutive iterations start, count
// the "bad" iterations (more than K·n iterations start between their start
// and end) that complete during I, and return the maximum over all windows.
// The lemma asserts the result is < n.
func (tr *Tracker) MaxBadCompletions(k, n int) int {
	win := k * n
	if win <= 0 || len(tr.iters) == 0 {
		return 0
	}
	// Sorted start times define the windows; for each iteration, its
	// badness is #starts strictly inside (start, end).
	starts := make([]int, len(tr.iters))
	for i, it := range tr.iters {
		starts[i] = it.startTime
	}
	sort.Ints(starts)
	type comp struct{ end int }
	var bad []comp
	for _, it := range tr.iters {
		if it.endTime == 0 {
			continue
		}
		inside := sort.SearchInts(starts, it.endTime) -
			sort.SearchInts(starts, it.startTime+1)
		if inside > win {
			bad = append(bad, comp{it.endTime})
		}
	}
	sort.Slice(bad, func(a, b int) bool { return bad[a].end < bad[b].end })
	badEnds := make([]int, len(bad))
	for i, b := range bad {
		badEnds[i] = b.end
	}
	maxBad := 0
	for i := 0; i+win <= len(starts); i++ {
		// The interval may extend until just before the (i+win)-th next
		// start — it still contains exactly K·n starts.
		lo := starts[i]
		hi := tr.clockS
		if i+win < len(starts) {
			hi = starts[i+win] - 1
		}
		c := sort.SearchInts(badEnds, hi+1) - sort.SearchInts(badEnds, lo)
		if c > maxBad {
			maxBad = c
		}
	}
	return maxBad
}

// DelayIndicatorMax evaluates the left side of Lemma 6.4:
// max_t Σ_{m≥1} 1{τ_{t+m} ≥ m}, computed over the measured staleness
// sequence. The lemma bounds it by 2·sqrt(τmax·n).
func (tr *Tracker) DelayIndicatorMax() int {
	taus := tr.staleness()
	n := len(taus)
	best := 0
	for t := 0; t < n; t++ {
		s := 0
		for m := 1; t+m < n; m++ {
			if taus[t+m] >= m {
				s++
			}
		}
		if s > best {
			best = s
		}
	}
	return best
}

// Observe interprets a tagged shm step and routes it to the appropriate
// tracker method. Untagged steps (zero Role) and roles outside the
// Algorithm-1 iteration structure are ignored. This lets a tracker be
// attached to any machine via Config.OnStep.
//
//asgd:hotpath
func (tr *Tracker) Observe(thread int, tg Tag, time int) {
	switch tg.Role {
	case RoleCounter:
		tr.Begin(tg.Thread, tg.Iter, time)
	case RoleRead:
		tr.Read(tg.Thread, tg.Iter, tg.Coord, time)
	case RoleUpdate:
		tr.Update(tg.Thread, tg.Iter, tg.Coord, time, tg.First)
		if tg.Last {
			tr.End(tg.Thread, tg.Iter, time)
		}
	}
}

// IterTimeline is an exported snapshot of one iteration's event times,
// used by the Figure-1 renderer and consistency checks.
type IterTimeline struct {
	Thread      int
	LocalIter   int
	OrderIdx    int // 1-based paper order; 0 if not ordered (incomplete)
	Start       int
	FirstUp     int
	End         int
	ReadTimes   []int
	UpdateTimes []int
}

// Timelines returns the recorded iteration timelines in start order.
// ReadTimes/UpdateTimes are materialized as dense per-coordinate arrays
// (0 = untouched) for the Figure-1 renderer; the tracker itself stores
// only the touched coordinates.
func (tr *Tracker) Timelines() []IterTimeline {
	out := make([]IterTimeline, 0, len(tr.iters))
	for _, it := range tr.iters {
		tl := IterTimeline{
			Thread:      it.thread,
			LocalIter:   it.localIter,
			OrderIdx:    it.orderIdx,
			Start:       it.startTime,
			FirstUp:     it.firstUpTime,
			End:         it.endTime,
			ReadTimes:   make([]int, tr.d),
			UpdateTimes: make([]int, tr.d),
		}
		for _, ct := range it.reads {
			tl.ReadTimes[ct.coord] = ct.time
		}
		for _, ct := range it.updates {
			tl.UpdateTimes[ct.coord] = ct.time
		}
		out = append(out, tl)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
