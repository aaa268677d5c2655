package grad

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// checkUnbiased verifies E[g̃(x)] ≈ ∇f(x) by Monte Carlo at a few points.
func checkUnbiased(t *testing.T, o Oracle, seed uint64, draws int, tol float64) {
	t.Helper()
	r := rng.New(seed)
	d := o.Dim()
	x := vec.NewDense(d)
	g := vec.NewDense(d)
	mean := vec.NewDense(d)
	full := vec.NewDense(d)
	for trial := 0; trial < 3; trial++ {
		r.NormalVector(x, 1)
		mean.Zero()
		for k := 0; k < draws; k++ {
			o.Grad(g, x, r)
			if err := mean.Add(g); err != nil {
				t.Fatal(err)
			}
		}
		mean.Scale(1 / float64(draws))
		o.FullGrad(full, x)
		dist, err := vec.Dist2(mean, full)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1 + full.Norm2()
		if dist/scale > tol {
			t.Errorf("biased gradient at %v: ‖Eg̃−∇f‖=%.4g (scale %.3g)", x, dist, scale)
		}
	}
}

// checkOptimum verifies ∇f(x*) ≈ 0 and that f increases away from x*.
func checkOptimum(t *testing.T, o Oracle, tol float64) {
	t.Helper()
	xs := o.Optimum()
	g := vec.NewDense(o.Dim())
	o.FullGrad(g, xs)
	if g.Norm2() > tol {
		t.Errorf("‖∇f(x*)‖ = %.4g > %g", g.Norm2(), tol)
	}
	f0 := o.Value(xs)
	probe := xs.Clone()
	probe[0] += 0.5
	if o.Value(probe) <= f0 {
		t.Errorf("f did not increase away from optimum: %v <= %v", o.Value(probe), f0)
	}
}

// checkStrongConvexity verifies Eq. (2) on random pairs:
// (x−y)ᵀ(∇f(x)−∇f(y)) ≥ c‖x−y‖².
func checkStrongConvexity(t *testing.T, o Oracle, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	c := o.Constants().C
	d := o.Dim()
	x, y := vec.NewDense(d), vec.NewDense(d)
	gx, gy := vec.NewDense(d), vec.NewDense(d)
	for trial := 0; trial < 20; trial++ {
		r.NormalVector(x, 1)
		r.NormalVector(y, 1)
		o.FullGrad(gx, x)
		o.FullGrad(gy, y)
		diff := x.Clone()
		if err := diff.AddScaled(-1, y); err != nil {
			t.Fatal(err)
		}
		gdiff := gx.Clone()
		if err := gdiff.AddScaled(-1, gy); err != nil {
			t.Fatal(err)
		}
		lhs := vec.MustDot(diff, gdiff)
		rhs := c * diff.Norm2Sq()
		if lhs < rhs*(1-1e-9)-1e-12 {
			t.Errorf("strong convexity violated: %v < %v·‖x−y‖²=%v", lhs, c, rhs)
		}
	}
}

func TestQuad1D(t *testing.T) {
	q, err := NewQuad1D(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Dim() != 1 {
		t.Fatalf("dim = %d", q.Dim())
	}
	if got := q.Value(vec.Dense{3}); got != 4.5 {
		t.Errorf("Value(3) = %v, want 4.5", got)
	}
	checkUnbiased(t, q, 1, 40000, 0.02)
	checkOptimum(t, q, 1e-12)
	checkStrongConvexity(t, q, 2)
	c := q.Constants()
	if c.C != 1 || c.L != 1 || math.Abs(c.M2-4.25) > 1e-12 {
		t.Errorf("constants = %+v", c)
	}
	if _, err := NewQuad1D(-1, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative sigma accepted: %v", err)
	}
	if _, err := NewQuad1D(1, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero radius accepted: %v", err)
	}
	cl, ok := q.CloneFor(1).(*Quad1D)
	if !ok || cl == q {
		t.Error("CloneFor must return an independent copy")
	}
}

func TestIsoQuadratic(t *testing.T) {
	xstar := vec.Dense{1, -2, 0.5}
	q, err := NewIsoQuadratic(3, 2, 0.1, 3, xstar)
	if err != nil {
		t.Fatal(err)
	}
	checkUnbiased(t, q, 3, 40000, 0.02)
	checkOptimum(t, q, 1e-12)
	checkStrongConvexity(t, q, 4)
	c := q.Constants()
	if c.C != 2 || c.L != 2 {
		t.Errorf("constants = %+v", c)
	}
	wantM2 := 4.0*9 + 3*0.01
	if math.Abs(c.M2-wantM2) > 1e-9 {
		t.Errorf("M2 = %v, want %v", c.M2, wantM2)
	}
	// The second moment bound must actually hold inside the ball.
	est := EstimateM2(q, 3, 20, 200, rng.New(5))
	if est > c.M2*1.05 {
		t.Errorf("empirical M2 %.4g exceeds analytic bound %.4g", est, c.M2)
	}
}

func TestIsoQuadraticValidation(t *testing.T) {
	if _, err := NewIsoQuadratic(0, 1, 0, 1, nil); !errors.Is(err, ErrBadParam) {
		t.Error("d=0 accepted")
	}
	if _, err := NewIsoQuadratic(2, -1, 0, 1, nil); !errors.Is(err, ErrBadParam) {
		t.Error("c<0 accepted")
	}
	if _, err := NewIsoQuadratic(2, 1, 0, 1, vec.Dense{1}); !errors.Is(err, ErrBadParam) {
		t.Error("xstar dim mismatch accepted")
	}
}

func TestAnisoQuadratic(t *testing.T) {
	q, err := NewQuadratic(vec.Dense{1, 4}, vec.Dense{0, 0}, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkUnbiased(t, q, 7, 40000, 0.02)
	checkStrongConvexity(t, q, 8)
	c := q.Constants()
	if c.C != 1 || c.L != 4 {
		t.Errorf("constants = %+v", c)
	}
	if _, err := NewQuadratic(vec.Dense{1, -1}, nil, 0, 1); !errors.Is(err, ErrBadParam) {
		t.Error("negative eigenvalue accepted")
	}
	if _, err := NewQuadratic(vec.Dense{}, nil, 0, 1); !errors.Is(err, ErrBadParam) {
		t.Error("empty spectrum accepted")
	}
}

func TestSingleCoordinateUnbiasedAndSparse(t *testing.T) {
	base, err := NewIsoQuadratic(4, 1, 0.1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSingleCoordinate(base)
	if s.Dim() != 4 {
		t.Fatalf("dim = %d", s.Dim())
	}
	checkUnbiased(t, s, 9, 120000, 0.05)
	r := rng.New(10)
	g := vec.NewDense(4)
	x := vec.Dense{1, 1, 1, 1}
	for k := 0; k < 50; k++ {
		s.Grad(g, x, r)
		if g.NNZ() > 1 {
			t.Fatalf("gradient has %d non-zeros, want ≤ 1: %v", g.NNZ(), g)
		}
	}
	c := s.Constants()
	if c.M2 != base.Constants().M2*4 {
		t.Errorf("M2 scaling wrong: %v", c.M2)
	}
	if got := s.CloneFor(2); got == nil || got.Dim() != 4 {
		t.Error("CloneFor broken")
	}
	if s.Value(x) != base.Value(x) {
		t.Error("Value must delegate")
	}
	full1, full2 := vec.NewDense(4), vec.NewDense(4)
	s.FullGrad(full1, x)
	base.FullGrad(full2, x)
	if !vec.ApproxEqual(full1, full2, 0) {
		t.Error("FullGrad must delegate")
	}
	if !vec.ApproxEqual(s.Optimum(), base.Optimum(), 0) {
		t.Error("Optimum must delegate")
	}
}

func TestEstimateM2ZeroNoiseAtOptimum(t *testing.T) {
	q, err := NewIsoQuadratic(2, 1, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With zero noise on a radius-r ball, E‖g̃‖² ≤ r², so the estimate with
	// r=0.5 must be ≤ 0.25.
	est := EstimateM2(q, 0.5, 30, 10, rng.New(3))
	if est > 0.25+1e-9 {
		t.Errorf("estimate %v exceeds ball bound 0.25", est)
	}
}
