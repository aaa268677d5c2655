package grad

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/data"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

func genDS(t *testing.T, m, d int, noise float64, seed uint64) *data.Dataset {
	t.Helper()
	ds, err := data.GenLinear(data.LinearConfig{
		Samples: m, Dim: d, NoiseStd: noise,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLeastSquaresRecoversTruthNoNoise(t *testing.T) {
	ds := genDS(t, 200, 4, 0, 21)
	ls, err := NewLeastSquares(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := vec.Dist2(ls.Optimum(), ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if dist > 1e-8 {
		t.Errorf("noiseless LS optimum off truth by %v", dist)
	}
	checkOptimum(t, ls, 1e-8)
	checkStrongConvexity(t, ls, 22)
	checkUnbiased(t, ls, 23, 60000, 0.05)
}

func TestLeastSquaresConstantsBoundReality(t *testing.T) {
	ds := genDS(t, 300, 3, 0.5, 31)
	ls, err := NewLeastSquares(ds, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cst := ls.Constants()
	if cst.C <= 0 || cst.L < cst.C {
		t.Errorf("constants implausible: %+v", cst)
	}
	// Analytic M² must dominate the empirical second moment on the ball.
	est := EstimateM2(ls, cst.R, 20, 500, rng.New(33))
	if est > cst.M2*1.02 {
		t.Errorf("empirical M² %.4g exceeds analytic %.4g", est, cst.M2)
	}
}

func TestLeastSquaresSingularRejected(t *testing.T) {
	// Fewer samples than dimensions ⇒ singular Gram, whose zero
	// eigenvalues the solver must resolve below the 1e-12 threshold,
	// dense or sparsified, small or at the sweep's dimensions.
	for _, c := range []struct {
		m, d int
		keep float64
	}{{3, 5, 1}, {31, 32, 1}, {20, 32, 0.3}, {100, 128, 0.15}} {
		ds := genDS(t, c.m, c.d, 0, 41)
		if c.keep < 1 {
			if err := data.SparsifyRows(ds, c.keep, rng.New(42)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := NewLeastSquares(ds, 1); !errors.Is(err, ErrBadParam) {
			t.Errorf("m=%d d=%d keep=%v: singular data accepted: %v", c.m, c.d, c.keep, err)
		}
	}
}

func TestLeastSquaresValueGradientConsistency(t *testing.T) {
	// Finite-difference check of FullGrad against Value.
	ds := genDS(t, 100, 3, 0.2, 51)
	ls, err := NewLeastSquares(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Dense{0.3, -0.7, 1.1}
	g := vec.NewDense(3)
	ls.FullGrad(g, x)
	const h = 1e-6
	for j := 0; j < 3; j++ {
		xp, xm := x.Clone(), x.Clone()
		xp[j] += h
		xm[j] -= h
		fd := (ls.Value(xp) - ls.Value(xm)) / (2 * h)
		if math.Abs(fd-g[j]) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("coord %d: finite diff %v vs grad %v", j, fd, g[j])
		}
	}
}

func TestLogisticOracle(t *testing.T) {
	ds, err := data.GenLogistic(data.LogisticConfig{
		Samples: 300, Dim: 3, Margin: 2,
	}, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogistic(ds, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkOptimum(t, lg, 1e-6)
	checkStrongConvexity(t, lg, 62)
	checkUnbiased(t, lg, 63, 60000, 0.05)
	cst := lg.Constants()
	if cst.C != 0.1 {
		t.Errorf("c = %v, want λ", cst.C)
	}
	est := EstimateM2(lg, cst.R, 15, 400, rng.New(64))
	if est > cst.M2*1.02 {
		t.Errorf("empirical M² %.4g exceeds analytic %.4g", est, cst.M2)
	}
}

func TestLogisticFiniteDifference(t *testing.T) {
	ds, err := data.GenLogistic(data.LogisticConfig{
		Samples: 120, Dim: 2, Margin: 1, FlipProb: 0.05,
	}, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogistic(ds, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Dense{0.4, -0.9}
	g := vec.NewDense(2)
	lg.FullGrad(g, x)
	const h = 1e-6
	for j := 0; j < 2; j++ {
		xp, xm := x.Clone(), x.Clone()
		xp[j] += h
		xm[j] -= h
		fd := (lg.Value(xp) - lg.Value(xm)) / (2 * h)
		if math.Abs(fd-g[j]) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("coord %d: finite diff %v vs grad %v", j, fd, g[j])
		}
	}
}

func TestLogisticValidation(t *testing.T) {
	ds, err := data.GenLogistic(data.LogisticConfig{Samples: 20, Dim: 2}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLogistic(ds, 0, 1); !errors.Is(err, ErrBadParam) {
		t.Error("λ=0 accepted")
	}
	if _, err := NewLogistic(ds, 0.1, 0); !errors.Is(err, ErrBadParam) {
		t.Error("r0=0 accepted")
	}
}

func TestClonesShareDataButNotState(t *testing.T) {
	ds := genDS(t, 50, 2, 0.1, 81)
	ls, err := NewLeastSquares(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := ls.CloneFor(3).(*LeastSquares)
	if !ok {
		t.Fatal("CloneFor type")
	}
	if &cl.xstar[0] == &ls.xstar[0] {
		t.Error("clone aliases xstar")
	}
	if cl.ds != ls.ds {
		t.Error("clone should share the immutable dataset")
	}
}
