package vec

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	x := NewDense(5)
	if x.Dim() != 5 {
		t.Fatalf("dim = %d, want 5", x.Dim())
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	x := FromSlice(src)
	src[0] = 99
	if x[0] != 1 {
		t.Errorf("FromSlice aliased its argument: x[0] = %v", x[0])
	}
}

func TestConstant(t *testing.T) {
	c := Constant(3, 2.5)
	for i := range c {
		if c[i] != 2.5 {
			t.Errorf("Constant[%d] = %v", i, c[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	x := Dense{1, 2}
	y := x.Clone()
	y[0] = 7
	if x[0] != 1 {
		t.Errorf("Clone aliases original")
	}
}

func TestScaleAddSub(t *testing.T) {
	x := Dense{1, 2, 3}
	x.Scale(2)
	if !ApproxEqual(x, Dense{2, 4, 6}, 1e-15) {
		t.Fatalf("scale: %v", x)
	}
	if err := x.Add(Dense{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(x, Dense{3, 5, 7}, 1e-15) {
		t.Fatalf("add: %v", x)
	}
	if err := x.AddScaled(-1, Dense{3, 5, 7}); err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(x, Dense{0, 0, 0}, 1e-15) {
		t.Fatalf("sub: %v", x)
	}
	if err := x.AddScaled(1, Dense{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("AddScaled mismatch err = %v", err)
	}
}

func TestDot(t *testing.T) {
	got, err := Dot(Dense{1, 2, 3}, Dense{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Errorf("dot = %v, want 32", got)
	}
	if _, err := Dot(Dense{1}, Dense{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
}

func TestMustDotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustDot did not panic on mismatch")
		}
	}()
	MustDot(Dense{1}, Dense{1, 2})
}

func TestNorms(t *testing.T) {
	x := Dense{3, -4}
	if got := x.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := x.Norm2Sq(); got != 25 {
		t.Errorf("Norm2Sq = %v, want 25", got)
	}
	if got := x.NormInf(); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
}

func TestNorm2OverflowGuard(t *testing.T) {
	x := Dense{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := x.Norm2(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Norm2 overflow-guarded = %v, want %v", got, want)
	}
}

func TestDist(t *testing.T) {
	d, err := Dist2(Dense{0, 0}, Dense{3, 4})
	if err != nil || d != 5 {
		t.Errorf("Dist2 = %v err=%v, want 5", d, err)
	}
	d2, err := Dist2Sq(Dense{0, 0}, Dense{3, 4})
	if err != nil || d2 != 25 {
		t.Errorf("Dist2Sq = %v err=%v, want 25", d2, err)
	}
	if _, err := Dist2(Dense{1}, Dense{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := Dist2Sq(Dense{1}, Dense{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
}

func TestNNZAndFinite(t *testing.T) {
	x := Dense{0, 1, 0, 2}
	if x.NNZ() != 2 {
		t.Errorf("NNZ = %d", x.NNZ())
	}
	if !x.IsFinite() {
		t.Errorf("IsFinite = false for finite vector")
	}
	if (Dense{math.NaN()}).IsFinite() {
		t.Errorf("IsFinite = true for NaN")
	}
	if (Dense{math.Inf(1)}).IsFinite() {
		t.Errorf("IsFinite = true for Inf")
	}
}

func TestZeroFillString(t *testing.T) {
	x := Dense{1, 2}
	x.Fill(3)
	if !ApproxEqual(x, Dense{3, 3}, 0) {
		t.Errorf("Fill: %v", x)
	}
	x.Zero()
	if !ApproxEqual(x, Dense{0, 0}, 0) {
		t.Errorf("Zero: %v", x)
	}
	if s := (Dense{1.5, -2}).String(); s != "[1.5 -2]" {
		t.Errorf("String = %q", s)
	}
}

func TestApproxEqualLengthMismatch(t *testing.T) {
	if ApproxEqual(Dense{1}, Dense{1, 2}, 1) {
		t.Errorf("ApproxEqual true on length mismatch")
	}
}

// Property: Cauchy–Schwarz |<x,y>| <= ‖x‖‖y‖ and triangle inequality.
func TestPropertyCauchySchwarzTriangle(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := FromSlice(clip(a[:])), FromSlice(clip(b[:]))
		dot := MustDot(x, y)
		if math.Abs(dot) > x.Norm2()*y.Norm2()*(1+1e-9)+1e-9 {
			return false
		}
		sum := x.Clone()
		if err := sum.Add(y); err != nil {
			return false
		}
		return sum.Norm2() <= x.Norm2()+y.Norm2()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: norm relations ‖x‖∞ ≤ ‖x‖₂ ≤ √d·‖x‖∞.
func TestPropertyNormEquivalence(t *testing.T) {
	f := func(a [6]float64) bool {
		x := FromSlice(clip(a[:]))
		n2, ni := x.Norm2(), x.NormInf()
		sq := math.Sqrt(float64(x.Dim()))
		return ni <= n2*(1+1e-12)+1e-12 &&
			n2 <= sq*ni*(1+1e-12)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: axpy then inverse axpy round-trips.
func TestPropertyAxpyRoundTrip(t *testing.T) {
	f := func(a, b [5]float64) bool {
		x, y := FromSlice(clip(a[:])), FromSlice(clip(b[:]))
		orig := x.Clone()
		if err := x.AddScaled(0.5, y); err != nil {
			return false
		}
		if err := x.AddScaled(-0.5, y); err != nil {
			return false
		}
		return ApproxEqual(x, orig, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// clip replaces non-finite or huge quick-generated values so that property
// tolerances stay meaningful.
func clip(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			out[i] = 1
		case v > 1e6:
			out[i] = 1e6
		case v < -1e6:
			out[i] = -1e6
		default:
			out[i] = v
		}
	}
	return out
}
