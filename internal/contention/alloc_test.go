package contention

import "testing"

// recordEpoch drives one synthetic epoch of the record path: threads
// iterations of begin → reads → updates → end, shaped like the dense
// worker pipeline (every iteration touches all coords in order).
func recordEpoch(tr *Tracker, threads, iters, d int) {
	time := 0
	for it := 0; it < iters; it++ {
		for th := 0; th < threads; th++ {
			time++
			tr.Begin(th, it, time)
			for c := 0; c < d; c++ {
				time++
				tr.Read(th, it, c, time)
			}
			for c := 0; c < d; c++ {
				time++
				tr.Update(th, it, c, time, c == 0)
			}
			time++
			tr.End(th, it, time)
		}
	}
}

// TestTrackerRecordPathAllocFree: after one warm-up epoch established the
// table and record capacities, the record path (Begin/Read/Update/End)
// of subsequent Reset cycles performs zero allocations — the per-thread
// dense iteration tables replace the old map[[2]int]int (no hashing, no
// map growth) and retired iter records with their reads/updates slices
// are recycled from the pool.
func TestTrackerRecordPathAllocFree(t *testing.T) {
	const threads, iters, d = 4, 50, 8
	tr := NewTracker(d)
	recordEpoch(tr, threads, iters, d) // warm: establish capacities
	tr.Reset(d)

	allocs := testing.AllocsPerRun(10, func() {
		recordEpoch(tr, threads, iters, d)
		tr.Reset(d)
	})
	if allocs != 0 {
		t.Errorf("record path allocs/epoch = %v, want 0", allocs)
	}
}

// TestTrackerObserveAllocFree: Observe (the Config.OnStep entry point,
// one call per simulated shared-memory step) must not allocate in steady
// state — with the concrete Tag there is no interface boxing and with
// pooled records no per-iteration garbage.
func TestTrackerObserveAllocFree(t *testing.T) {
	const d = 4
	tr := NewTracker(d)
	drive := func() {
		time := 0
		for it := 0; it < 20; it++ {
			time++
			tr.Observe(0, Tag{Thread: 0, Iter: it, Role: RoleCounter}, time)
			for c := 0; c < d; c++ {
				time++
				tr.Observe(0, Tag{Thread: 0, Iter: it, Role: RoleRead, Coord: c}, time)
			}
			for c := 0; c < d; c++ {
				time++
				tr.Observe(0, Tag{
					Thread: 0, Iter: it, Role: RoleUpdate, Coord: c,
					First: c == 0, Last: c == d-1,
				}, time)
			}
		}
	}
	drive()
	tr.Reset(d)
	allocs := testing.AllocsPerRun(10, func() {
		drive()
		tr.Reset(d)
	})
	if allocs != 0 {
		t.Errorf("Observe allocs/epoch = %v, want 0", allocs)
	}
}

// TestTrackerResetIsolation: statistics computed after a Reset must match
// a fresh tracker's — pooled records carry no state across epochs.
func TestTrackerResetIsolation(t *testing.T) {
	const threads, iters, d = 3, 10, 4
	fresh := NewTracker(d)
	recordEpoch(fresh, threads, iters, d)
	fresh.Finalize()

	reused := NewTracker(d)
	recordEpoch(reused, threads+1, iters+5, d) // different first epoch
	reused.Finalize()
	reused.Reset(d)
	recordEpoch(reused, threads, iters, d)
	reused.Finalize()

	if f, r := fresh.TauMax(), reused.TauMax(); f != r {
		t.Errorf("TauMax: fresh %d vs reused %d", f, r)
	}
	if f, r := fresh.TauAvg(), reused.TauAvg(); f != r {
		t.Errorf("TauAvg: fresh %v vs reused %v", f, r)
	}
	if f, r := fresh.Completed(), reused.Completed(); f != r {
		t.Errorf("Completed: fresh %d vs reused %d", f, r)
	}
	ft, rt := fresh.Taus(), reused.Taus()
	if len(ft) != len(rt) {
		t.Fatalf("Taus length: fresh %d vs reused %d", len(ft), len(rt))
	}
	for i := range ft {
		if ft[i] != rt[i] {
			t.Errorf("Taus[%d]: fresh %d vs reused %d", i, ft[i], rt[i])
		}
	}
}

// recordLockstep drives an epoch in which every thread's iteration runs in
// lockstep with the others' (all begin, then each coordinate is read by
// every thread in turn, then updated likewise), so views miss their
// predecessors' updates and τ is non-zero.
func recordLockstep(tr *Tracker, threads, iters, d int) {
	time := 0
	for it := 0; it < iters; it++ {
		for th := 0; th < threads; th++ {
			time++
			tr.Begin(th, it, time)
		}
		for c := 0; c < d; c++ {
			for th := 0; th < threads; th++ {
				time++
				tr.Read(th, it, c, time)
			}
		}
		for c := 0; c < d; c++ {
			for th := 0; th < threads; th++ {
				time++
				tr.Update(th, it, c, time, c == 0)
			}
		}
		for th := 0; th < threads; th++ {
			tr.End(th, it, time)
		}
	}
}

// TestTrackerLazyTausSurviveReuse: the staleness sequence is computed on
// first use after Finalize and memoised, so a reused tracker must drop the
// memo in Reset — its second epoch's τ statistics must equal a fresh
// tracker's. A tracker that was never finalized keeps the taus it holds.
func TestTrackerLazyTausSurviveReuse(t *testing.T) {
	const d = 3
	fresh := NewTracker(d)
	recordLockstep(fresh, 3, 4, d)
	fresh.Finalize()

	reused := NewTracker(d)
	recordLockstep(reused, 2, 6, d) // a different first epoch, τ read
	reused.Finalize()
	if reused.TauMaxView() == 0 {
		t.Fatal("first epoch has no staleness; the test would prove nothing")
	}
	reused.Reset(d)
	recordLockstep(reused, 3, 4, d)
	reused.Finalize()

	if f, r := fresh.TauMaxView(), reused.TauMaxView(); f != r || f == 0 {
		t.Errorf("TauMaxView: fresh %d vs reused %d (want equal and non-zero)", f, r)
	}
	if f, r := fresh.DelayIndicatorMax(), reused.DelayIndicatorMax(); f != r {
		t.Errorf("DelayIndicatorMax: fresh %d vs reused %d", f, r)
	}
	ft, rt := fresh.Taus(), reused.Taus()
	if len(ft) != len(rt) || len(ft) == 0 {
		t.Fatalf("Taus length: fresh %d vs reused %d", len(ft), len(rt))
	}
	for i := range ft {
		if ft[i] != rt[i] {
			t.Errorf("Taus[%d]: fresh %d vs reused %d", i, ft[i], rt[i])
		}
	}

	planted := &Tracker{taus: []int{0, 2, 1}}
	if got := planted.TauMaxView(); got != 2 {
		t.Errorf("unfinalized tracker TauMaxView = %d, want its planted 2", got)
	}
	if got := planted.Taus(); len(got) != 3 || got[1] != 2 {
		t.Errorf("unfinalized tracker Taus = %v, want its planted [0 2 1]", got)
	}
}
