package contention

import "testing"

// Two iterations overlapping in time but updating disjoint coordinates:
// interval contention sees a conflict, touched-coordinate contention does
// not. A third iteration sharing a coordinate with the first conflicts
// under both definitions.
func TestTouchedContentions(t *testing.T) {
	var r record
	// Iteration A: updates coord 0 over [1, 10].
	a := r.claim(0, 0, 1)
	r.update(a, 0, 5)
	r.end(a, 10)
	// Iteration B: updates coord 1 over [2, 9] — overlaps A, disjoint coords.
	b := r.claim(1, 0, 2)
	r.update(b, 1, 6)
	r.end(b, 9)
	// Iteration C: updates coord 0 over [3, 8] — overlaps A on coord 0.
	c := r.claim(2, 0, 3)
	r.update(c, 0, 7)
	r.end(c, 8)
	tr := r.tracker(4)

	rho := IntervalContentions(r.wins)
	if rho[0] != 2 || rho[1] != 2 || rho[2] != 2 {
		t.Errorf("interval contentions = %v, want all 2", rho)
	}
	touched := tr.TouchedContentions()
	want := []int{1, 0, 1} // A↔C conflict on coord 0; B conflicts with nobody
	for i := range want {
		if touched[i] != want[i] {
			t.Errorf("touched contentions = %v, want %v", touched, want)
			break
		}
	}
	if tr.TauMaxTouched() != 1 {
		t.Errorf("TauMaxTouched = %d, want 1", tr.TauMaxTouched())
	}
	if got := tr.TauAvgTouched(); got < 0.66 || got > 0.67 {
		t.Errorf("TauAvgTouched = %v, want 2/3", got)
	}
}

// With dense updates (every iteration touches every coordinate) the
// touched-coordinate definition degenerates to interval contention.
func TestTouchedMatchesIntervalWhenDense(t *testing.T) {
	var r record
	for th := 0; th < 3; th++ {
		it := r.claim(th, 0, 1+th)
		for c := 0; c < 2; c++ {
			r.update(it, c, 5+th)
		}
		r.end(it, 10+th)
	}
	tr := r.tracker(2)
	rho := IntervalContentions(r.wins)
	touched := tr.TouchedContentions()
	for i := range rho {
		if rho[i] != touched[i] {
			t.Errorf("dense: interval %v vs touched %v", rho, touched)
			break
		}
	}
}
