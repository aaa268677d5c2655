// Package contention implements the iteration-level bookkeeping of the
// paper's Sections 2 and 6: interval contention ρ(θ), its maximum τmax and
// average τavg, per-iteration view staleness τ_t under the total order "t
// is the t-th iteration to perform its first model fetch&add" (Lemma 6.1),
// the bad/good iteration counting of Lemma 6.2, and the delay-indicator
// sums of Lemma 6.4.
//
// The statistics are functions of when each iteration claimed, read and
// updated. The SGD workers write those times into a claim-indexed
// iteration record (Window, Iter) as they execute. The interval
// statistics (IntervalContentions, TauMax, TauAvg, MaxBadCompletions,
// MaxAdmissions) need only the windows, which both runtimes record; the
// view statistics need the whole record, from which NewTracker builds a
// Tracker once the run is over.
//
// It also names Tag, the annotation attached by SGD thread programs to
// their shared-memory operations. Tags are visible to scheduling policies
// (the strong adversary knows the role of every pending operation) and to
// the machine's step log. The concrete struct lives in internal/shm —
// embedded by value in shm.Request so issuing a tagged operation
// allocates nothing — and is aliased here, where its vocabulary is
// documented.
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
	// of the Algorithm-1 iteration structure and stays out of the
	// iteration record.
	RoleProbe = shm.RoleProbe
	// RoleGate marks the synchronization operations of the gated
	// disciplines (bounded staleness, epoch fencing): reads of the shared
	// done-counter while waiting at the entry gate or waiting to publish a
	// completion, and the publishing fetch&add itself. For gate reads,
	// Tag.Coord carries the done-counter threshold the worker is waiting
	// for, so an adversary can tell a blocked thread from a passable one.
	// Like RoleProbe it is not part of the Algorithm-1 iteration structure
	// and stays out of the iteration record.
	RoleGate = shm.RoleGate
)

// Tag annotates one shared-memory operation with its place in the SGD
// execution. Thread is the issuing thread; Iter is the thread-local
// iteration number (0-based); Coord is the model coordinate for reads and
// updates; First/Last mark the first and last model update of the
// iteration (First defines the paper's total order on iterations). It
// aliases shm.Tag, the concrete annotation embedded in shm.Request.
type Tag = shm.Tag

// CoordTime is one touched coordinate with the machine time of the touch.
// Iterations record their reads and updates as CoordTime lists — the same
// sparse index/value representation the update pipeline uses — so an
// iteration costs O(touched) record memory, not O(d).
type CoordTime struct{ Coord, Time int }

// Window is one claimed iteration's admission window, in machine times:
// Start is its counter claim, FirstRead its first view read and End its
// last model update. FirstRead is 0 for an iteration that read nothing,
// End is 0 for one that did not complete, and the zero Window is an
// iteration that was never claimed. The real-thread runtime records the
// same windows in claim-counter time.
type Window struct{ Start, FirstRead, End int }

// lastEvent returns the latest claim or completion in ws. It ends the
// interval of every incomplete iteration: the statistics compare interval
// ends only with starts and completions, so any later time, such as the
// machine's last step, would give the same values.
func lastEvent(ws []Window) int {
	c := 0
	for _, w := range ws {
		if w.Start > 0 {
			c = max(c, w.Start, w.End)
		}
	}
	return c
}

// IntervalContentions returns ρ(θ) for every claimed iteration θ of ws,
// in the order of ws: the number of other iterations whose [start, end]
// interval overlaps θ's. Incomplete iterations end at the latest claim or
// completion. Windows in claim order, as both runtimes record them, are
// already in start order: they need no sort, and little work each.
func IntervalContentions(ws []Window) []int {
	type interval struct{ start, end, slot int }
	clock := lastEvent(ws)
	ivs := make([]interval, 0, len(ws))
	for _, w := range ws {
		if w.Start > 0 {
			ivs = append(ivs, interval{w.Start, cmp.Or(w.End, clock), len(ivs)})
		}
	}
	byStart := func(x, y interval) int { return cmp.Compare(x.start, y.start) }
	if !slices.IsSortedFunc(ivs, byStart) {
		slices.SortFunc(ivs, byStart)
	}
	starts := make([]int, len(ivs))
	for k, v := range ivs {
		starts[k] = v.start
	}
	// ρ = #(start ≤ end_k) − #(end < start_k) − 1 (self). With a_j =
	// #(start ≤ end_j), end_j < starts[k] exactly when a_j ≤ k.
	a, byA := make([]int, len(ivs)), make([]int, len(ivs)+1)
	h := 0
	for k, v := range ivs {
		h = searchNear(starts, v.end+1, max(h, k+1)) // a_k ≥ k+1: end_k ≥ start_k
		a[k] = h
		byA[h]++
	}
	rho := make([]int, len(ivs))
	ended := 0
	for k, v := range ivs {
		ended += byA[k]
		rho[v.slot] = a[k] - ended - 1
	}
	return rho
}

// searchNear returns the number of elements of the sorted xs below x,
// galloping out from hint, the answer to a nearby query. Windows arrive
// in claim order, so consecutive queries cost O(1) rather than O(log n).
func searchNear(xs []int, x, hint int) int {
	lo, hi := hint, hint // xs[:lo] < x ≤ xs[hi:] once both loops end
	for step := 1; lo > 0 && xs[lo-1] >= x; step *= 2 {
		hi, lo = lo-1, max(lo-step, 0)
	}
	for step := 1; hi < len(xs) && xs[hi] < x; step *= 2 {
		lo, hi = hi+1, min(hi+step, len(xs))
	}
	k, _ := slices.BinarySearch(xs[lo:hi], x)
	return lo + k
}

// TauMax returns the maximum interval contention over the claimed
// iterations of ws (the paper's τmax); 0 if none.
func TauMax(ws []Window) int { return maxOf(IntervalContentions(ws)) }

// TauAvg returns the average interval contention over the claimed
// iterations of ws (the paper's τavg); 0 if none.
func TauAvg(ws []Window) float64 { return mean(IntervalContentions(ws)) }

// maxOf returns the largest of the non-negative counts xs, 0 if none.
func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// mean returns the mean of xs, 0 if xs is empty.
func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// MaxBadCompletions evaluates the quantity bounded by Lemma 6.2 over the
// claimed iterations of ws: for every interval I during which exactly K·n
// consecutive iterations start, count the "bad" iterations (more than K·n
// iterations start between their start and end) that complete during I,
// and return the maximum over all such intervals. The lemma asserts the
// result is < n.
func MaxBadCompletions(ws []Window, k, n int) int {
	win := k * n
	var starts, badEnds []int
	for _, w := range ws {
		if w.Start > 0 {
			starts = append(starts, w.Start)
		}
	}
	if win <= 0 || len(starts) == 0 {
		return 0
	}
	// Sorted start times define the intervals; an iteration's badness is
	// #starts strictly inside (start, end).
	slices.Sort(starts)
	for _, w := range ws {
		if w.Start > 0 && w.End > 0 && sort.SearchInts(starts, w.End)-sort.SearchInts(starts, w.Start+1) > win {
			badEnds = append(badEnds, w.End)
		}
	}
	slices.Sort(badEnds)
	clock := lastEvent(ws)
	maxBad := 0
	for i := 0; i+win <= len(starts); i++ {
		// The interval may extend until just before the (i+win)-th next
		// start — it still contains exactly K·n starts.
		lo, hi := starts[i], clock
		if i+win < len(starts) {
			hi = starts[i+win] - 1
		}
		maxBad = max(maxBad, sort.SearchInts(badEnds, hi+1)-sort.SearchInts(badEnds, lo))
	}
	return maxBad
}

// Iter is the rest of one claimed iteration's record, kept only by
// tracked runs: the claiming thread and its thread-local iteration
// number, the time of the first model update (0 if none; it sets the
// paper's total order), the touched-coordinate view reads in read order —
// which both worker pipelines make increasing in the coordinate — and the
// model updates in update order.
type Iter struct {
	Thread, LocalIter int
	FirstUp           int
	Reads, Updates    []CoordTime
}

// iter is the tracker's copy of one iteration's record.
type iter struct {
	Window
	Iter
	orderIdx int // 1-based paper order; 0 if not ordered (incomplete)
}

// readTimeOf returns the time it read coord (0 if it never did). Reads
// are in increasing coordinate order, so the list is searchable.
func (it *iter) readTimeOf(coord int) int {
	k, found := slices.BinarySearchFunc(it.Reads, coord, func(r CoordTime, c int) int { return cmp.Compare(r.Coord, c) })
	if found {
		return it.Reads[k].Time
	}
	return 0
}

// Tracker computes the paper's view statistics from a run's iteration
// record. The staleness sequence behind Taus, TauMaxView and
// DelayIndicatorMax is computed on the first call to one of them, since
// most consumers never read it. Tracker is not safe for concurrent use.
type Tracker struct {
	d      int
	iters  []iter // claimed iterations in claim order, which is start order
	clockS int    // lastEvent of the windows: ends incomplete intervals

	ordered []*iter // complete iterations in paper order
	taus    []int   // taus[t-1] = τ_t for ordered iteration t (1-based); nil until computed
}

// NewTracker builds the tracker of a run on a d-dimensional model from
// its iteration record, indexed by claimed counter value: wins[c] and
// its[c] describe the iteration that claimed c, and a zero wins[c].Start
// marks a value nobody claimed. The tracker copies what it keeps of wins,
// so sorting wins afterwards (MaxAdmissions does) does not reach it.
// Complete iterations — those with a first and a last model update — are
// ordered by their first update, the paper's total order (Lemma 6.1).
func NewTracker(d int, wins []Window, its []Iter) *Tracker {
	n := len(wins)
	tr := &Tracker{d: d, iters: make([]iter, 0, n), clockS: lastEvent(wins), ordered: make([]*iter, 0, n)}
	for c, w := range wins {
		if w.Start == 0 {
			continue
		}
		tr.iters = append(tr.iters, iter{Window: w, Iter: its[c]})
	}
	for i := range tr.iters {
		if it := &tr.iters[i]; it.FirstUp > 0 && it.End > 0 {
			tr.ordered = append(tr.ordered, it)
		}
	}
	slices.SortFunc(tr.ordered, func(a, b *iter) int { return cmp.Compare(a.FirstUp, b.FirstUp) })
	for i, it := range tr.ordered {
		it.orderIdx = i + 1
	}
	return tr
}

// Iterations returns the number of iterations that started.
func (tr *Tracker) Iterations() int { return len(tr.iters) }

// Completed returns the number of iterations that finished their last
// model update.
func (tr *Tracker) Completed() int {
	c := 0
	for _, it := range tr.iters {
		if it.End > 0 {
			c++
		}
	}
	return c
}

// staleness returns τ_1..τ_T, running computeTaus on the first call.
func (tr *Tracker) staleness() []int {
	if tr.taus == nil {
		tr.computeTaus()
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
	tr.taus = make([]int, n)
	if n == 0 {
		return
	}
	prefMaxEnd := make([]int, n+1) // prefMaxEnd[k] = max End of ordered[0..k-1]
	for i, it := range tr.ordered {
		prefMaxEnd[i+1] = max(prefMaxEnd[i], it.End)
	}
	for t := 1; t <= n; t++ {
		it := tr.ordered[t-1]
		minRead := it.FirstRead
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
			if pred.End < minRead {
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
	for _, u := range pred.Updates {
		if r := cur.readTimeOf(u.Coord); r > 0 && u.Time > r {
			return true
		}
	}
	return false
}

// Taus returns the staleness sequence τ_1..τ_T over ordered iterations,
// computing it on the first call. The slice is owned by the tracker.
func (tr *Tracker) Taus() []int { return tr.staleness() }

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
		m = max(m, count)
	}
	return m
}

// TauMaxView returns max_t τ_t, the maximum view staleness.
func (tr *Tracker) TauMaxView() int { return maxOf(tr.staleness()) }

// TouchedContentions restricts the Ω-overlap behind ρ(θ) to actual data
// conflicts: for every started iteration it counts the other iterations
// that both overlap it in time AND update at least one common coordinate.
// For dense updates every overlapping pair conflicts and this coincides
// with IntervalContentions over the windows; for sparse updates it
// measures the contention the paper's per-coordinate fetch&add semantics
// actually see.
func (tr *Tracker) TouchedContentions() []int {
	n := len(tr.iters)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	ends := make([]int, n)
	byCoord := make(map[int][]int) // coord -> indices of iterations updating it
	for i, it := range tr.iters {
		ends[i] = cmp.Or(it.End, tr.clockS)
		seen := -1
		for _, u := range it.Updates {
			if u.Coord == seen { // consecutive duplicates (re-updates) are rare
				continue
			}
			seen = u.Coord
			byCoord[u.Coord] = append(byCoord[u.Coord], i)
		}
	}
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for i, it := range tr.iters {
		for _, u := range it.Updates {
			for _, j := range byCoord[u.Coord] {
				if j == i || stamp[j] == i {
					continue
				}
				stamp[j] = i
				if tr.iters[j].Start <= ends[i] && it.Start <= ends[j] {
					out[i]++
				}
			}
		}
	}
	return out
}

// TauMaxTouched returns the maximum touched-coordinate contention — the
// sparse-aware counterpart of TauMax over the windows.
func (tr *Tracker) TauMaxTouched() int { return maxOf(tr.TouchedContentions()) }

// TauAvgTouched returns the average touched-coordinate contention.
func (tr *Tracker) TauAvgTouched() float64 { return mean(tr.TouchedContentions()) }

// MaxIncomplete returns the maximum, over time, of the number of
// simultaneously incomplete iterations — iterations that performed their
// first model update but not their last. Lemma 6.1 asserts this never
// exceeds the number of threads n.
func (tr *Tracker) MaxIncomplete() int {
	type ev struct{ t, delta int }
	var evs []ev
	for _, it := range tr.iters {
		if it.FirstUp == 0 {
			continue
		}
		evs = append(evs, ev{it.FirstUp, +1})
		if it.End > 0 {
			// An iteration with a single update is momentarily incomplete
			// only at its own step; end strictly after first.
			evs = append(evs, ev{it.End + 1, -1})
		}
	}
	slices.SortFunc(evs, func(a, b ev) int { // apply -1 before +1 at ties
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.delta, b.delta))
	})
	cur, maxC := 0, 0
	for _, e := range evs {
		cur += e.delta
		maxC = max(maxC, cur)
	}
	return maxC
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
		best = max(best, s)
	}
	return best
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

// Timelines returns the recorded iteration timelines in claim order,
// which is start order.
// ReadTimes/UpdateTimes are materialized as dense per-coordinate arrays
// (0 = untouched) for the Figure-1 renderer; the tracker itself stores
// only the touched coordinates.
func (tr *Tracker) Timelines() []IterTimeline {
	out := make([]IterTimeline, 0, len(tr.iters))
	for _, it := range tr.iters {
		tl := IterTimeline{
			Thread:      it.Thread,
			LocalIter:   it.LocalIter,
			OrderIdx:    it.orderIdx,
			Start:       it.Start,
			FirstUp:     it.FirstUp,
			End:         it.End,
			ReadTimes:   make([]int, tr.d),
			UpdateTimes: make([]int, tr.d),
		}
		for _, ct := range it.Reads {
			tl.ReadTimes[ct.Coord] = ct.Time
		}
		for _, ct := range it.Updates {
			tl.UpdateTimes[ct.Coord] = ct.Time
		}
		out = append(out, tl)
	}
	return out
}
