package grad

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"asyncsgd/internal/data"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

func sparseDataset(t *testing.T, d int, keep float64) *data.Dataset {
	t.Helper()
	gen := rng.New(71)
	ds, err := data.GenLinear(data.LinearConfig{Samples: 6 * d, Dim: d, NoiseStd: 0.1}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.SparsifyRows(ds, keep, gen); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSparseLeastSquaresMatchesDenseOracle(t *testing.T) {
	ds := sparseDataset(t, 12, 0.4)
	sls, err := NewSparseLeastSquares(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewLeastSquares(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Constant(12, 0.3)
	if v1, v2 := sls.Value(x), dense.Value(x); math.Abs(v1-v2) > 1e-12 {
		t.Errorf("Value: sparse %v vs dense %v", v1, v2)
	}
	g1, g2 := vec.NewDense(12), vec.NewDense(12)
	sls.FullGrad(g1, x)
	dense.FullGrad(g2, x)
	if !vec.ApproxEqual(g1, g2, 1e-12) {
		t.Errorf("FullGrad: %v vs %v", g1, g2)
	}
	if !vec.ApproxEqual(sls.Optimum(), dense.Optimum(), 1e-12) {
		t.Error("optima differ")
	}
	c1, c2 := sls.Constants(), dense.Constants()
	if c1 != c2 {
		t.Errorf("constants: %+v vs %+v", c1, c2)
	}
}

// TestSparseLeastSquaresNonFiniteMatchesDense: the sparse oracle derives
// its right-hand side and M² from the CSR rows, skipping zero entries.
// When a label or an entry of x* is not finite, 0·b is NaN rather than
// ±0, so those rows take the dense path; the constants and x* must still
// have the dense oracle's bits, NaN payloads included.
func TestSparseLeastSquaresNonFiniteMatchesDense(t *testing.T) {
	diag := func(vals ...float64) *data.Dataset {
		ds := &data.Dataset{}
		for j, v := range vals {
			row := make(vec.Dense, len(vals))
			row[j] = v
			ds.Rows = append(ds.Rows, row)
			ds.Labels = append(ds.Labels, 1)
		}
		return ds
	}
	nanLabel := diag(1.5, 1.5)
	nanLabel.Labels[0] = math.NaN()
	infLabel := diag(1.5, 1.5, 2)
	infLabel.Labels[1] = math.Inf(1)
	infEntry := diag(1.5, 1.5)
	infEntry.Rows[0][0] = math.Inf(1)
	for name, ds := range map[string]*data.Dataset{"NaN label": nanLabel, "+Inf label": infLabel, "+Inf entry": infEntry} {
		dense, err := NewLeastSquares(ds, 1)
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		sparse, err := NewSparseLeastSquares(ds, 1)
		if err != nil {
			t.Fatalf("%s: sparse: %v", name, err)
		}
		cd, cs := dense.Constants(), sparse.Constants()
		for _, p := range [][2]float64{{cd.C, cs.C}, {cd.L, cs.L}, {cd.M2, cs.M2}, {cd.R, cs.R}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Errorf("%s: constants %+v, want the dense %+v", name, cs, cd)
				break
			}
		}
		xd, xs := dense.Optimum(), sparse.Optimum()
		for j := range xd {
			if math.Float64bits(xd[j]) != math.Float64bits(xs[j]) {
				t.Errorf("%s: x* = %v, want the dense %v", name, xs, xd)
				break
			}
		}
	}
}

// TestSparseGradAgreesWithDenseGrad checks the two-phase sparse protocol
// against the dense Grad path for oracles where both consume the stream
// identically (row/entry draw first).
func TestSparseGradAgreesWithDenseGrad(t *testing.T) {
	ds := sparseDataset(t, 10, 0.5)
	sls, err := NewSparseLeastSquares(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := NewMatrixFactorization(MFConfig{M: 6, N: 5, Rank: 2, ObserveProb: 0.5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]SparseOracle{"sls": sls, "mf": mf} {
		d := o.Dim()
		x := vec.NewDense(d)
		rng.New(9).NormalVector(x, 0.5)
		gd := vec.NewDense(d)
		var gs vec.Sparse
		for trial := 0; trial < 20; trial++ {
			seed := uint64(100 + trial)
			o.Grad(gd, x, rng.New(seed))
			if _, err := GradSparseVia(&gs, o, x, rng.New(seed), nil); err != nil {
				t.Fatal(err)
			}
			if !gs.IsSorted() {
				t.Fatalf("%s: sparse gradient indices not sorted: %v", name, gs.Indices)
			}
			if !vec.ApproxEqual(gs.ToDense(), gd, 1e-12) {
				t.Errorf("%s trial %d: sparse %v vs dense %v", name, trial, gs.ToDense(), gd)
			}
		}
	}
}

func TestSingleCoordinateSparseSeparable(t *testing.T) {
	// σ = 0 makes the quadratic's stochastic gradient deterministic given
	// the drawn coordinate, so the sparse path can be checked analytically.
	q, err := NewIsoQuadratic(8, 2, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSingleCoordinate(q)
	x := vec.Constant(8, 0.5)
	r := rng.New(5)
	var g vec.Sparse
	for trial := 0; trial < 10; trial++ {
		support := sc.PlanSparse(r)
		if len(support) != 1 {
			t.Fatalf("separable base: read support %v, want one coordinate", support)
		}
		vals, err := vec.GatherFrom(nil, x, support)
		if err != nil {
			t.Fatal(err)
		}
		sc.GradSparseAt(&g, vals, r)
		if g.NNZ() != 1 || g.Indices[0] != support[0] {
			t.Fatalf("sparse gradient %+v for support %v", g, support)
		}
		want := 8 * 2 * 0.5 // d·λ·(x_j − 0)
		if math.Abs(g.Values[0]-want) > 1e-12 {
			t.Errorf("value %v, want %v", g.Values[0], want)
		}
	}
}

func TestSingleCoordinateSparseFallback(t *testing.T) {
	// A data-driven base is not separable: the read support must be the
	// full coordinate range, the write support still a single coordinate.
	ds := sparseDataset(t, 6, 0.8)
	base, err := NewLeastSquares(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSingleCoordinate(base)
	r := rng.New(11)
	support := sc.PlanSparse(r)
	if len(support) != 6 {
		t.Fatalf("fallback read support %v, want all 6 coordinates", support)
	}
	x := vec.Constant(6, 0.2)
	vals, err := vec.GatherFrom(nil, x, support)
	if err != nil {
		t.Fatal(err)
	}
	var g vec.Sparse
	sc.GradSparseAt(&g, vals, r)
	if g.NNZ() > 1 {
		t.Errorf("write support %v, want at most one coordinate", g.Indices)
	}
}

func TestAsSparse(t *testing.T) {
	q, err := NewIsoQuadratic(4, 1, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := AsSparse(q); ok {
		t.Error("dense quadratic reported sparse capability")
	}
	if _, ok := AsSparse(NewSingleCoordinate(q)); !ok {
		t.Error("SingleCoordinate lost sparse capability")
	}
	mf, err := NewMatrixFactorization(MFConfig{M: 4, N: 4, Rank: 1, ObserveProb: 0.9}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := AsSparse(mf); !ok {
		t.Error("MatrixFactorization lost sparse capability")
	}
	if _, ok := AsSparse(mf.CloneFor(1)); !ok {
		t.Error("clone lost sparse capability")
	}
}

func TestGradSparseViaBadSupport(t *testing.T) {
	// An oracle announcing an out-of-range support must surface
	// ErrDimMismatch through the gather step.
	bad := badSupportOracle{}
	var g vec.Sparse
	if _, err := GradSparseVia(&g, bad, vec.NewDense(3), rng.New(1), nil); !errors.Is(err, vec.ErrDimMismatch) {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
}

// badSupportOracle announces a support outside its dimension.
type badSupportOracle struct{}

func (badSupportOracle) Dim() int                           { return 3 }
func (badSupportOracle) Value(vec.Dense) float64            { return 0 }
func (badSupportOracle) FullGrad(dst, _ vec.Dense)          { dst.Zero() }
func (badSupportOracle) Grad(dst, _ vec.Dense, _ *rng.Rand) { dst.Zero() }
func (badSupportOracle) Optimum() vec.Dense                 { return vec.NewDense(3) }
func (badSupportOracle) Constants() Constants               { return Constants{C: 1, L: 1, M2: 1, R: 1} }
func (b badSupportOracle) CloneFor(int) Oracle              { return b }
func (badSupportOracle) PlanSparse(*rng.Rand) []int         { return []int{7} }
func (badSupportOracle) GradSparseAt(dst *vec.Sparse, _ []float64, _ *rng.Rand) {
	dst.Reset(3)
}

// FuzzSparseLeastSquaresRows: the CSR rows NewSparseLeastSquares carves
// from its two slabs must each equal the dataset row's non-zeros in index
// order — same Dim, Indices and Values, and nil slices for an all-zero
// row — and
// an append to one row must never write into the next.
func FuzzSparseLeastSquaresRows(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(4), []byte{1, 0, 4, 0, 0, 0, 0, 0, 0, 9, 0, 0}) // a sparse row between all-zero ones
	f.Add(uint8(2), []byte{128, 0, 4, 8, 0, 0})                 // -0 (dropped) and a full row
	f.Add(uint8(7), bytes.Repeat([]byte{5, 0, 250, 128, 7, 0, 3}, 6))
	f.Fuzz(func(t *testing.T, dim uint8, raw []byte) {
		d := int(dim)%16 + 1
		var rows []vec.Dense
		for ; len(raw) >= d && len(rows) < 32; raw = raw[d:] {
			row := make(vec.Dense, d)
			for k, b := range raw[:d] {
				if b&3 == 0 {
					row[k] = math.Copysign(0, float64(int8(b)))
				} else {
					row[k] = float64(int8(b)) / 8
				}
			}
			rows = append(rows, row)
		}
		// d unit rows make the Gram matrix non-singular whatever came
		// before them.
		for j := 0; j < d; j++ {
			row := make(vec.Dense, d)
			row[j] = 1
			rows = append(rows, row)
		}
		ds := &data.Dataset{Rows: rows, Labels: make([]float64, len(rows))}
		s, err := NewSparseLeastSquares(ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.rows) != len(rows) {
			t.Fatalf("%d sparse rows for %d dataset rows", len(s.rows), len(rows))
		}
		for i, row := range rows {
			got, want := s.rows[i], vec.Sparse{Dim: len(row)}
			for j, v := range row {
				if v != 0 {
					want.Indices = append(want.Indices, j)
					want.Values = append(want.Values, v)
				}
			}
			if got.Dim != want.Dim || !reflect.DeepEqual(got.Indices, want.Indices) ||
				!reflect.DeepEqual(got.Values, want.Values) {
				t.Fatalf("row %d = %+v, want %+v", i, got, want)
			}
		}
		for i := 0; i+1 < len(s.rows); i++ {
			next := vec.Sparse{
				Dim:     s.rows[i+1].Dim,
				Indices: append([]int(nil), s.rows[i+1].Indices...),
				Values:  append([]float64(nil), s.rows[i+1].Values...),
			}
			_ = append(s.rows[i].Indices, -1)
			_ = append(s.rows[i].Values, math.Inf(1))
			if !reflect.DeepEqual(s.rows[i+1].Indices, next.Indices) ||
				!reflect.DeepEqual(s.rows[i+1].Values, next.Values) {
				t.Fatalf("appending to row %d changed row %d to %+v (was %+v)", i, i+1, s.rows[i+1], next)
			}
		}
	})
}

// TestLipschitzSkipsSolve: Lipschitz returns Constants().L's bits
// without the QL solve for C that the first Constants call runs.
func TestLipschitzSkipsSolve(t *testing.T) {
	for _, keep := range []float64{0.3, 0.6, 1} {
		s, err := NewSparseLeastSquares(sparseDataset(t, 16, keep), 4)
		if err != nil {
			t.Fatal(err)
		}
		l := s.Lipschitz()
		if s.lmin.c != 0 {
			t.Fatalf("keep=%v: C = %v before any Constants call; construction solved for it", keep, s.lmin.c)
		}
		cst := s.Constants()
		if math.Float64bits(l) != math.Float64bits(cst.L) {
			t.Fatalf("keep=%v: Lipschitz %v, Constants().L %v", keep, l, cst.L)
		}
		if !(cst.C > 0) {
			t.Fatalf("keep=%v: C = %v after Constants", keep, cst.C)
		}
	}
}

// TestGramSlabReuse: builds of different sizes and data back to back,
// through the pooled Gram slab, give the bits of the first build of the
// same data: a reused slab is cleared, and no build keeps one.
func TestGramSlabReuse(t *testing.T) {
	type built struct {
		cst   Constants
		xstar vec.Dense
	}
	build := func(d int, keep float64) built {
		s, err := NewSparseLeastSquares(sparseDataset(t, d, keep), 4)
		if err != nil {
			t.Fatal(err)
		}
		return built{s.Constants(), s.Optimum()}
	}
	type key struct {
		d    int
		keep float64
	}
	first := map[key]built{}
	for round := 0; round < 3; round++ {
		for _, k := range []key{{8, 0.6}, {8, 1}, {16, 0.6}, {4, 1}, {8, 0.6}} {
			got := build(k.d, k.keep)
			want, ok := first[k]
			if !ok {
				first[k] = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %+v: %+v, first build %+v", round, k, got, want)
			}
		}
	}
}
