package grad

import (
	"errors"
	"math"
	"sync"
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

// rotatedGram returns three dense rows whose Gram matrix is
// Q·diag(lams)·Qᵀ, up to rounding, for the orthonormal Q with columns
// (1,2,2)/3, (2,1,−2)/3 and (2,−2,1)/3: a Gram matrix with no zero entry
// and a chosen spectrum.
func rotatedGram(lams [3]float64) *data.Dataset {
	q := [3][3]float64{{1, 2, 2}, {2, 1, -2}, {2, -2, 1}}
	ds := &data.Dataset{}
	for k, lam := range lams {
		row := make(vec.Dense, 3)
		for j := range row {
			row[j] = math.Sqrt(3*lam) * q[k][j] / 3
		}
		ds.Rows = append(ds.Rows, row)
		ds.Labels = append(ds.Labels, float64(k+1))
	}
	return ds
}

// TestLeastSquaresSingularRejected is the full-rank decision table. Each
// instance goes through both constructors, which must return the same
// error, byte for byte, as before the Cholesky certificate existed (a
// singular Gram matrix prints QL's λmin), or accept it. Fewer samples
// than dimensions, or a column that is always zero, give zero
// eigenvalues, which the solver must resolve below the 1e-12 threshold,
// dense or sparsified, small or at the sweep's dimensions. Near the
// threshold, the certificate must leave the decision to QL: at
// λmin ≈ 1e-13 (rejected), 1e-11 and 1e-9·tr(G) (both accepted, C from
// QL). The printed λmin are amd64's bits, like every pinned figure in
// the repository.
func TestLeastSquaresSingularRejected(t *testing.T) {
	thinned := func(m, d int, keep float64) *data.Dataset {
		ds := genDS(t, m, d, 0, 41)
		if keep < 1 {
			if err := data.SparsifyRows(ds, keep, rng.New(42)); err != nil {
				t.Fatal(err)
			}
		}
		return ds
	}
	zeroColumn := genDS(t, 60, 4, 0.1, 43)
	for _, row := range zeroColumn.Rows {
		row[2] = 0
	}
	singular := func(lmin string) string {
		return "grad: invalid parameter: singular Gram matrix (λmin=" + lmin + "), need m ≥ d and full rank"
	}
	for _, c := range []struct {
		name      string
		ds        *data.Dataset
		certified bool
		err       string // "" when accepted
	}{
		{"m=3 d=5", thinned(3, 5, 1), false, singular("-1.74e-17")},
		{"m=31 d=32", thinned(31, 32, 1), false, singular("-3.36e-17")},
		{"m=20 d=32 keep=0.3", thinned(20, 32, 0.3), false, singular("-2.14e-15")},
		{"m=100 d=128 keep=0.15", thinned(100, 128, 0.15), false, singular("-2.43e-14")},
		{"zero column", zeroColumn, false, singular("-5.45e-32")},
		{"λmin≈1e-13", rotatedGram([3]float64{1, 0.5, 1e-13}), false, singular("1e-13")},
		{"λmin≈1e-11", rotatedGram([3]float64{1, 0.5, 1e-11}), false, ""},
		{"λmin≈1e-9·tr", rotatedGram([3]float64{1, 0.5, 1.5e-9}), false, ""},
		{"λmin≈1e-6", rotatedGram([3]float64{1, 0.5, 1e-6}), true, ""},
		{"m=384 d=64 keep=0.3", thinned(384, 64, 0.3), true, ""},
	} {
		g, err := c.ds.Gram()
		if err != nil {
			t.Fatal(err)
		}
		if got := certified(g, make([]float64, g.N*g.N)); got != c.certified {
			t.Errorf("%s: certified = %v, want %v", c.name, got, c.certified)
		}
		lo, _, err := g.ExtremeEigenvalues()
		if err != nil {
			t.Fatal(err)
		}
		for _, build := range []struct {
			name string
			new  func(*data.Dataset, float64) (Oracle, error)
		}{
			{"dense", func(ds *data.Dataset, r0 float64) (Oracle, error) { return NewLeastSquares(ds, r0) }},
			{"sparse", func(ds *data.Dataset, r0 float64) (Oracle, error) { return NewSparseLeastSquares(ds, r0) }},
		} {
			o, err := build.new(c.ds, 1)
			switch {
			case c.err != "":
				if err == nil || err.Error() != c.err || !errors.Is(err, ErrBadParam) {
					t.Errorf("%s %s: error %v, want %q", c.name, build.name, err, c.err)
				}
			case err != nil:
				t.Errorf("%s %s: rejected: %v", c.name, build.name, err)
			case math.Float64bits(o.Constants().C) != math.Float64bits(lo):
				t.Errorf("%s %s: C = %v, want QL's λmin %v", c.name, build.name, o.Constants().C, lo)
			}
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

// TestLazyConstantsMatchEigenvalues: C, computed on the first Constants
// call, has the bits of QL's λmin on the dataset's Gram matrix, for both
// least-squares oracles at the sweep's row densities and shape (6·d
// rows), and for the sparse one at hogwild_sparse_gated's d = 256 and 4·d
// rows. The original oracle and its CloneFor copies all read Constants at
// once; they share one computation, which the race detector checks.
func TestLazyConstantsMatchEigenvalues(t *testing.T) {
	for _, d := range []int{1, 2, 32, 256} {
		rows := 6 * d
		if d == 256 {
			rows = 4 * d
		}
		for _, keep := range []float64{0.15, 0.3, 0.6, 1} {
			built := 0
			for seed := uint64(1); seed <= 3 && built == 0; seed++ {
				gen := rng.New(seed)
				ds, err := data.GenLinear(data.LinearConfig{Samples: rows, Dim: d, NoiseStd: 0.05}, gen)
				if err != nil {
					t.Fatal(err)
				}
				if err := data.SparsifyRows(ds, keep, gen); err != nil {
					t.Fatal(err)
				}
				g, err := ds.Gram()
				if err != nil {
					t.Fatal(err)
				}
				lo, _, err := g.ExtremeEigenvalues()
				if err != nil {
					t.Fatal(err)
				}
				sls, err := NewSparseLeastSquares(ds, 4)
				if err != nil {
					// A thinned instance this small can be singular.
					continue
				}
				built++
				oracles := []Oracle{sls}
				if d <= 32 {
					ls, err := NewLeastSquares(ds, 4)
					if err != nil {
						t.Fatalf("d=%d keep=%v seed=%d: dense rejects what sparse accepts: %v", d, keep, seed, err)
					}
					oracles = append(oracles, ls)
				}
				for _, o := range oracles {
					readers := []Oracle{o, o.CloneFor(0), o.CloneFor(1), o.CloneFor(2)}
					got := make([]Constants, len(readers))
					var wg sync.WaitGroup
					for k, r := range readers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							got[k] = r.Constants()
						}()
					}
					wg.Wait()
					for k, c := range got {
						if math.Float64bits(c.C) != math.Float64bits(lo) {
							t.Errorf("d=%d keep=%v %T reader %d: C = %v, want λmin %v", d, keep, o, k, c.C, lo)
						}
						if c != got[0] {
							t.Errorf("d=%d keep=%v %T reader %d: %+v, want %+v", d, keep, o, k, c, got[0])
						}
					}
				}
			}
			if built == 0 {
				t.Errorf("d=%d keep=%v: no seed gave a full-rank instance", d, keep)
			}
		}
	}
}
