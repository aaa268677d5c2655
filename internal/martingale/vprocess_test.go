package martingale

import (
	"math"
	"testing"
)

func TestVSeriesShapes(t *testing.T) {
	w := testWitness(t)
	// Mismatched inputs return nil.
	if got := VSeries(w, []float64{1}, []float64{1, 1}, []int{0}, 2, 1); got != nil {
		t.Errorf("mismatched inputs accepted: %v", got)
	}
	// A trajectory already inside the success region is empty.
	if got := VSeries(w, []float64{0.01, 0.01}, []float64{1}, []int{0}, 2, 1); len(got) != 0 {
		t.Errorf("in-region trajectory not frozen: %v", got)
	}
	// With zero staleness, V_t = W_t − drift·t exactly.
	distSq := []float64{4, 3, 2}
	norms := []float64{1, 1}
	taus := []int{0, 0}
	got := VSeries(w, distSq, norms, taus, 2, 1)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	drift := w.Alpha * w.Alpha * w.H() * w.Cst.L * math.Sqrt(w.Cst.M2) * 2 * 1
	for tt := range got {
		want := w.Value(tt, distSq[tt]) - drift*float64(tt)
		if math.Abs(got[tt]-want) > 1e-12 {
			t.Errorf("V[%d] = %v, want %v", tt, got[tt], want)
		}
	}
}
