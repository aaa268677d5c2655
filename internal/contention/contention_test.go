package contention

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// record builds a run's iteration record by hand, writing the fields the
// SGD workers write: a claim's window start and owner, each view read,
// each model update (the first one sets FirstUp), and the last update's
// time as the window's end.
type record struct {
	wins []Window
	its  []Iter
}

// claim records thread's localIter-th iteration claiming the next counter
// value at time, and returns that value.
func (r *record) claim(thread, localIter, time int) int {
	r.wins = append(r.wins, Window{Start: time})
	r.its = append(r.its, Iter{Thread: thread, LocalIter: localIter})
	return len(r.wins) - 1
}

func (r *record) read(c, coord, time int) {
	if r.wins[c].FirstRead == 0 {
		r.wins[c].FirstRead = time
	}
	r.its[c].Reads = append(r.its[c].Reads, CoordTime{coord, time})
}

func (r *record) update(c, coord, time int) {
	if r.its[c].FirstUp == 0 {
		r.its[c].FirstUp = time
	}
	r.its[c].Updates = append(r.its[c].Updates, CoordTime{coord, time})
}

func (r *record) end(c, time int) { r.wins[c].End = time }

func (r *record) tracker(d int) *Tracker { return NewTracker(d, r.wins, r.its) }

// buildSequential records k iterations of a single thread, each with
// pattern: claim, read all coords, update all coords. Fully sequential, so
// all staleness and contention metrics must be zero.
func buildSequential(d, k int) record {
	var r record
	clock := 0
	for i := 0; i < k; i++ {
		clock++
		c := r.claim(0, i, clock)
		for j := 0; j < d; j++ {
			clock++
			r.read(c, j, clock)
		}
		for j := 0; j < d; j++ {
			clock++
			r.update(c, j, clock)
		}
		r.end(c, clock)
	}
	return r
}

func TestSequentialHasNoStalenessOrContention(t *testing.T) {
	r := buildSequential(3, 10)
	tr := r.tracker(3)
	if tr.Iterations() != 10 || tr.Completed() != 10 {
		t.Fatalf("iters=%d completed=%d", tr.Iterations(), tr.Completed())
	}
	if got := tr.TauMaxView(); got != 0 {
		t.Errorf("TauMaxView = %d, want 0", got)
	}
	if got := TauMax(r.wins); got != 0 {
		t.Errorf("TauMax = %d, want 0", got)
	}
	if got := TauAvg(r.wins); got != 0 {
		t.Errorf("TauAvg = %v, want 0", got)
	}
	if got := tr.MaxIncomplete(); got != 1 {
		t.Errorf("MaxIncomplete = %d, want 1", got)
	}
	if got := tr.DelayIndicatorMax(); got != 0 {
		t.Errorf("DelayIndicatorMax = %d, want 0", got)
	}
	if got := MaxBadCompletions(r.wins, 2, 1); got != 0 {
		t.Errorf("MaxBadCompletions = %d, want 0", got)
	}
}

// Two interleaved iterations: thread 1 reads before thread 0 updates, so
// thread 1's view misses thread 0's update when ordered after it.
func TestStaleViewDetected(t *testing.T) {
	var r record
	// Thread 0 iteration 0: claim@1, read@2,3, update@6(first),7(last).
	a := r.claim(0, 0, 1)
	r.read(a, 0, 2)
	r.read(a, 1, 3)
	// Thread 1 iteration 0: claim@4, reads@4,5 (misses t0's updates),
	// updates @8(first),9(last) — ordered second.
	b := r.claim(1, 0, 4)
	r.read(b, 0, 4)
	r.read(b, 1, 5)
	r.update(a, 0, 6)
	r.update(a, 1, 7)
	r.end(a, 7)
	r.update(b, 0, 8)
	r.update(b, 1, 9)
	r.end(b, 9)
	tr := r.tracker(2)

	taus := tr.Taus()
	if len(taus) != 2 {
		t.Fatalf("taus = %v", taus)
	}
	if taus[0] != 0 {
		t.Errorf("τ_1 = %d, want 0 (first iteration misses nothing)", taus[0])
	}
	if taus[1] != 1 {
		t.Errorf("τ_2 = %d, want 1 (missed iteration 1's updates)", taus[1])
	}
	if got := TauMax(r.wins); got != 1 {
		t.Errorf("TauMax (interval contention) = %d, want 1", got)
	}
	if got := TauAvg(r.wins); got != 1 {
		t.Errorf("TauAvg = %v, want 1 (both overlap)", got)
	}
	// Update phases [6,7] and [8,9] do not overlap: at most one iteration
	// is ever between its first and last update here.
	if got := tr.MaxIncomplete(); got != 1 {
		t.Errorf("MaxIncomplete = %d, want 1", got)
	}
}

// A view that reads AFTER the predecessor's updates misses nothing even
// though the iterations' intervals overlap.
func TestFreshViewDespiteOverlap(t *testing.T) {
	var r record
	a := r.claim(0, 0, 1)
	r.read(a, 0, 2)
	b := r.claim(1, 0, 3) // overlaps iteration (0,0)
	r.update(a, 0, 4)
	r.end(a, 4)
	r.read(b, 0, 5) // reads after t0's update: fresh
	r.update(b, 0, 6)
	r.end(b, 6)
	tr := r.tracker(1)
	taus := tr.Taus()
	if taus[1] != 0 {
		t.Errorf("τ_2 = %d, want 0 (view fresh)", taus[1])
	}
	if got := TauMax(r.wins); got != 1 {
		t.Errorf("interval contention = %d, want 1", got)
	}
}

func TestIncompleteIterationExcludedFromOrder(t *testing.T) {
	var r record
	a := r.claim(0, 0, 1)
	r.read(a, 0, 2)
	r.update(a, 0, 3)
	r.end(a, 3)
	b := r.claim(1, 0, 2) // started, never updated (crashed mid-iteration)
	r.read(b, 0, 4)
	tr := r.tracker(1)
	if got := len(tr.Taus()); got != 1 {
		t.Errorf("ordered iterations = %d, want 1", got)
	}
	if tr.Completed() != 1 || tr.Iterations() != 2 {
		t.Errorf("completed=%d iterations=%d", tr.Completed(), tr.Iterations())
	}
	// The incomplete interval [2, ·) ends at the latest claim or
	// completion (3), so it overlaps [1, 3].
	if got := IntervalContentions(r.wins); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Errorf("IntervalContentions = %v, want [1 1]", got)
	}
}

func TestDelayIndicatorMaxKnownSequence(t *testing.T) {
	tr := &Tracker{taus: []int{0, 3, 3, 3, 0, 0}}
	// t=0: m=1: τ1=3>=1 ✓; m=2: τ2=3>=2 ✓; m=3: τ3=3>=3 ✓; m=4: τ4=0>=4 ✗;
	// m=5: τ5=0 ✗ → 3.
	if got := tr.DelayIndicatorMax(); got != 3 {
		t.Errorf("DelayIndicatorMax = %d, want 3", got)
	}
}

func TestMaxBadCompletionsDetectsDelayedIteration(t *testing.T) {
	// n=2 threads, K=1 → window Kn=2. One iteration spans many starts.
	var r record
	victim := r.claim(0, 0, 1) // victim: start early...
	r.read(victim, 0, 2)
	clock := 3
	for i := 0; i < 6; i++ { // 6 quick iterations of thread 1
		c := r.claim(1, i, clock)
		r.read(c, 0, clock+1)
		r.update(c, 0, clock+2)
		r.end(c, clock+2)
		clock += 3
	}
	r.update(victim, 0, clock) // ...finish late: 6 starts in between
	r.end(victim, clock)
	// One delayed victim, and Lemma 6.2's bound n−1 = 1 holds.
	if got := MaxBadCompletions(r.wins, 1, 2); got != 1 {
		t.Errorf("MaxBadCompletions = %d, want 1 (the delayed victim)", got)
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[Role]string{
		RoleCounter: "counter", RoleRead: "read", RoleUpdate: "update",
		Role(9): "Role(9)",
	} {
		if got := r.String(); got != want {
			t.Errorf("Role.String(%d) = %q, want %q", r, got, want)
		}
	}
}

// TestTrackerUnaffectedBySortedWindows: the tracker keeps its own copy of
// the windows, so MaxAdmissions sorting the record's windows in place
// after construction — as the sweep does — changes none of its
// statistics. Here the later claim reads first, so the sort reorders.
func TestTrackerUnaffectedBySortedWindows(t *testing.T) {
	var r record
	a := r.claim(0, 0, 1)
	b := r.claim(1, 0, 2)
	r.read(b, 0, 3)
	r.read(a, 0, 4)
	r.update(b, 0, 5)
	r.end(b, 5)
	r.update(a, 0, 6)
	r.end(a, 6)
	tr := r.tracker(1)
	before := tr.Timelines()
	if got := MaxAdmissions(r.wins); got != 0 || r.wins[0].Start != 2 {
		t.Fatalf("MaxAdmissions = %d, first window %+v; want 0 and the windows sorted by FirstRead", got, r.wins[0])
	}
	if after := tr.Timelines(); !reflect.DeepEqual(before, after) {
		t.Errorf("timelines changed by sorting the record's windows:\n before %+v\n after  %+v", before, after)
	}
}

// TestUnknownIterationIgnored: record entries at a counter value nobody
// claimed (a zero window start) are not iterations, whatever they carry.
func TestUnknownIterationIgnored(t *testing.T) {
	its := []Iter{{Thread: 3, LocalIter: 9, FirstUp: 2,
		Reads: []CoordTime{{0, 1}}, Updates: []CoordTime{{0, 2}}}}
	ws := []Window{{FirstRead: 1, End: 2}}
	tr := NewTracker(1, ws, its)
	if tr.Iterations() != 0 || tr.Completed() != 0 || len(tr.Taus()) != 0 {
		t.Errorf("phantom iterations recorded: %d", tr.Iterations())
	}
	if rho := IntervalContentions(ws); len(rho) != 0 || MaxBadCompletions(ws, 1, 1) != 0 {
		t.Errorf("phantom window counted: contentions %v", rho)
	}
}

// TestIntervalContentionsMatchesPairwiseCount checks the counting
// algorithm against the definition, pair by pair, on random windows in
// random order: unclaimed ones, incomplete ones, shared start times.
func TestIntervalContentionsMatchesPairwiseCount(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 3))
	for trial := 0; trial < 3000; trial++ {
		ws := make([]Window, r.IntN(12))
		for i := range ws {
			if r.IntN(6) > 0 {
				ws[i].Start = 1 + r.IntN(20)
				if r.IntN(4) > 0 {
					ws[i].End = ws[i].Start + r.IntN(8)
				}
			}
		}
		clock := lastEvent(ws)
		end := func(w Window) int { return cmp.Or(w.End, clock) } // incomplete: the clock
		var want []int
		for i, w := range ws {
			if w.Start == 0 {
				continue
			}
			rho := 0
			for j, v := range ws {
				if j != i && v.Start > 0 && v.Start <= end(w) && w.Start <= end(v) {
					rho++
				}
			}
			want = append(want, rho)
		}
		if got := IntervalContentions(ws); !slices.Equal(got, want) {
			t.Fatalf("windows %v: contentions %v, want %v", ws, got, want)
		}
	}
}
