package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlog(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{0.5, 0.5},
		{1, 1}, // log(e·1) = 1 = x: continuous at the knee
		{math.E, 2},
		{-2, -2},
	}
	for _, tc := range tests {
		if got := Plog(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Plog(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// Property: plog is 1-Lipschitz and monotone — the two facts Lemma 6.6
// relies on for the H-Lipschitz constant of W.
func TestPropertyPlogLipschitzMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = Clamp(a, -1e6, 1e6), Clamp(b, -1e6, 1e6)
		pa, pb := Plog(a), Plog(b)
		if math.Abs(pa-pb) > math.Abs(a-b)+1e-9 {
			return false
		}
		if a <= b && pa > pb+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", w.Mean())
	}
	// Unbiased sample variance of that classic dataset is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v", w.Variance())
	}
	if math.Abs(w.Std()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("Std = %v", w.Std())
	}
}

// TestWelfordMerge: merging partitions of a dataset must agree with
// accumulating it whole (Chan et al.), including the degenerate empty and
// one-sided cases.
func TestWelfordMerge(t *testing.T) {
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9, -1, 3.5, 0.25}
	for _, cut := range []int{0, 1, 5, len(data)} {
		var whole, left, right Welford
		for _, x := range data {
			whole.Add(x)
		}
		for _, x := range data[:cut] {
			left.Add(x)
		}
		for _, x := range data[cut:] {
			right.Add(x)
		}
		left.Merge(right)
		if left.N() != whole.N() {
			t.Fatalf("cut %d: N = %d, want %d", cut, left.N(), whole.N())
		}
		if math.Abs(left.Mean()-whole.Mean()) > 1e-12 {
			t.Errorf("cut %d: Mean = %v, want %v", cut, left.Mean(), whole.Mean())
		}
		if math.Abs(left.Variance()-whole.Variance()) > 1e-12 {
			t.Errorf("cut %d: Variance = %v, want %v", cut, left.Variance(), whole.Variance())
		}
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("n=0 interval = (%v,%v)", lo, hi)
	}
	lo, hi = WilsonInterval(0, 100, 1.96)
	if lo != 0 || hi <= 0 || hi > 0.1 {
		t.Errorf("k=0 interval = (%v,%v)", lo, hi)
	}
	lo, hi = WilsonInterval(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("k=n/2 interval = (%v,%v) should straddle 0.5", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100, 1.96)
	if hi < 1-1e-9 || lo >= 1 || lo < 0.9 {
		t.Errorf("k=n interval = (%v,%v)", lo, hi)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if math.Abs(a-1) > 1e-9 || math.Abs(b-2) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("fit = (%v,%v,%v)", a, b, r2)
	}
	a, b, r2 = LinearFit(nil, nil)
	if a != 0 || b != 0 || r2 != 0 {
		t.Errorf("empty fit = (%v,%v,%v)", a, b, r2)
	}
	a, b, r2 = LinearFit([]float64{2, 2}, []float64{1, 3})
	if b != 0 || r2 != 0 || a != 2 {
		t.Errorf("degenerate-x fit = (%v,%v,%v)", a, b, r2)
	}
}

func TestPowerFit(t *testing.T) {
	// y = 3·x^0.5
	xs := []float64{1, 4, 9, 16, 25}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Sqrt(x)
	}
	c, p, r2 := PowerFit(xs, ys)
	if math.Abs(c-3) > 1e-9 || math.Abs(p-0.5) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("power fit = (%v,%v,%v)", c, p, r2)
	}
	// Non-positive values are skipped rather than corrupting the fit.
	c, p, _ = PowerFit([]float64{-1, 1, 4}, []float64{5, 3, 6})
	if math.IsNaN(c) || math.IsNaN(p) {
		t.Errorf("power fit with nonpositive xs produced NaN")
	}
}
