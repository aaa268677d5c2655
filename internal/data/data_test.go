package data

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

func TestGenLinearShapesAndDeterminism(t *testing.T) {
	cfg := LinearConfig{Samples: 50, Dim: 4, NoiseStd: 0.1}
	a, err := GenLinear(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenLinear(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 50 || a.Dim() != 4 {
		t.Fatalf("shape = (%d, %d)", a.Len(), a.Dim())
	}
	for i := range a.Rows {
		if !vec.ApproxEqual(a.Rows[i], b.Rows[i], 0) || a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
	if !vec.ApproxEqual(a.Truth, b.Truth, 0) {
		t.Error("truth differs")
	}
	if math.Abs(a.Truth.Norm2()-1) > 1e-12 {
		t.Errorf("default truth norm = %v, want 1", a.Truth.Norm2())
	}
}

func TestGenLinearNoiselessLabelsExact(t *testing.T) {
	ds, err := GenLinear(LinearConfig{Samples: 30, Dim: 3}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range ds.Rows {
		want := vec.MustDot(row, ds.Truth)
		if math.Abs(ds.Labels[i]-want) > 1e-12 {
			t.Fatalf("label %d = %v, want %v", i, ds.Labels[i], want)
		}
	}
}

func TestGenLinearConditioning(t *testing.T) {
	ds, err := GenLinear(LinearConfig{
		Samples: 4000, Dim: 4, CondExp: 10,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Gram()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := g.ExtremeEigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	cond := hi / lo
	// Expected condition number ≈ CondExp² = 100 (sampling noise wide).
	if cond < 30 || cond > 300 {
		t.Errorf("condition number = %v, want ≈100", cond)
	}
}

func TestGenLinearValidation(t *testing.T) {
	bad := []LinearConfig{
		{Samples: 0, Dim: 2},
		{Samples: 2, Dim: 0},
		{Samples: 2, Dim: 2, NoiseStd: -1},
	}
	for _, cfg := range bad {
		if _, err := GenLinear(cfg, rng.New(1)); !errors.Is(err, ErrBadShape) {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestSparsifyRowsPreservesScaleAndSparsifies(t *testing.T) {
	ds, err := GenLinear(LinearConfig{Samples: 2000, Dim: 10}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var before float64
	for _, r := range ds.Rows {
		before += r.Norm2Sq()
	}
	if err := SparsifyRows(ds, 0.3, rng.New(6)); err != nil {
		t.Fatal(err)
	}
	var after float64
	nnz := 0
	for _, r := range ds.Rows {
		after += r.Norm2Sq()
		nnz += r.NNZ()
	}
	frac := float64(nnz) / float64(2000*10)
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("kept fraction = %v, want ≈0.3", frac)
	}
	// E after = before/keep; check within 15%.
	want := before / 0.3
	if after < want*0.85 || after > want*1.15 {
		t.Errorf("second moment after sparsify = %v, want ≈%v", after, want)
	}
	if err := SparsifyRows(ds, 0, rng.New(7)); !errors.Is(err, ErrBadShape) {
		t.Error("keep=0 accepted")
	}
}

func TestGramErrors(t *testing.T) {
	ds := &Dataset{}
	if _, err := ds.Gram(); !errors.Is(err, ErrBadShape) {
		t.Error("Gram on empty dataset accepted")
	}
}

// genLinearScalar is GenLinear drawing one Normal per entry, as it did
// before NormalFill.
func genLinearScalar(cfg LinearConfig, r *rng.Rand) *Dataset {
	scales := coordScales(cfg.Dim, cfg.CondExp)
	truth := randomDirection(cfg.Dim, cfg.TruthNorm, r)
	ds := &Dataset{Labels: make([]float64, cfg.Samples), Truth: truth}
	for i := 0; i < cfg.Samples; i++ {
		row := vec.NewDense(cfg.Dim)
		for j := range row {
			row[j] = scales[j] * r.Normal()
		}
		ds.Rows = append(ds.Rows, row)
		ds.Labels[i] = vec.MustDot(row, truth) + cfg.NoiseStd*r.Normal()
	}
	return ds
}

// sparsifyScalar is SparsifyRows with a branch on each Bernoulli draw,
// written with Float64 as Bernoulli was.
func sparsifyScalar(ds *Dataset, keep float64, r *rng.Rand) {
	inv := 1 / keep
	for _, row := range ds.Rows {
		for j := range row {
			if r.Float64() < keep {
				row[j] *= inv
			} else {
				row[j] = 0
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGenLinearMatchesScalarDraws: the bulk normal fill and a reused
// (released, dirtied) row slab give the bits of one Normal per entry, and
// leave the generator where the scalar draws leave it.
func TestGenLinearMatchesScalarDraws(t *testing.T) {
	cfgs := []LinearConfig{
		{Samples: 3, Dim: 1},
		{Samples: 7, Dim: 5, NoiseStd: 0.1},
		{Samples: 192, Dim: 32, NoiseStd: 0.05},
		{Samples: 40, Dim: 9, NoiseStd: 1, CondExp: 10, TruthNorm: 3},
	}
	for i, cfg := range cfgs {
		for round := 0; round < 2; round++ {
			seed := uint64(31 + i)
			r, ref := rng.New(seed), rng.New(seed)
			ds, err := GenLinear(cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.CondExp == 0 {
				cfg.CondExp = 1
			}
			if cfg.TruthNorm == 0 {
				cfg.TruthNorm = 1
			}
			want := genLinearScalar(cfg, ref)
			for k := range want.Rows {
				if !sameBits(ds.Rows[k], want.Rows[k]) {
					t.Fatalf("cfg %d round %d: row %d = %v, want %v", i, round, k, ds.Rows[k], want.Rows[k])
				}
			}
			if !sameBits(ds.Labels, want.Labels) || !sameBits(ds.Truth, want.Truth) {
				t.Fatalf("cfg %d round %d: labels or truth differ", i, round)
			}
			if r.Uint64() != ref.Uint64() {
				t.Fatalf("cfg %d round %d: generators diverged after the dataset", i, round)
			}
			// Dirty the slab before handing it back: the next round
			// draws into it.
			for _, row := range ds.Rows {
				for k := range row {
					row[k] = math.NaN()
				}
			}
			ds.Release()
			if ds.Rows != nil {
				t.Fatal("Release left the rows in place")
			}
			ds.Release() // a second Release hands nothing back
		}
	}
}

// TestNewRowsZeroedAfterRelease: a reused slab comes back zeroed and
// capacity-limited per row, whatever the released dataset left in it.
func TestNewRowsZeroedAfterRelease(t *testing.T) {
	for _, shape := range [][2]int{{4, 3}, {2, 2}, {5, 4}} {
		rows, slab := newRows(shape[0], shape[1])
		for _, row := range rows {
			for k := range row {
				row[k] = -1
			}
		}
		(&Dataset{Rows: rows, slab: slab}).Release()
		rows, _ = newRows(shape[0], shape[1])
		for i, row := range rows {
			if len(row) != shape[1] || cap(row) != shape[1] {
				t.Fatalf("%v: row %d has len %d cap %d", shape, i, len(row), cap(row))
			}
			for _, v := range row {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%v: row %d = %v, want +0s", shape, i, row)
				}
			}
		}
	}
}

// thinValues is an 8×8 dataset whose entries cycle through ordinary,
// subnormal and non-finite values and both zeros.
func thinValues() []float64 {
	special := []float64{1.25, -3, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, 5e-324, -7e300, 0.1}
	vals := make([]float64, 64)
	for k := range vals {
		vals[k] = special[k%len(special)]
	}
	return vals
}

// checkThinning compares SparsifyRows with the branching reference on
// rows built from vals (d entries per row), bit for bit and by the
// generator state left behind.
func checkThinning(t *testing.T, vals []float64, d int, keep float64, seed uint64) {
	t.Helper()
	var got, want Dataset
	for lo := 0; lo+d <= len(vals); lo += d {
		got.Rows = append(got.Rows, vec.FromSlice(vals[lo:lo+d]))
		want.Rows = append(want.Rows, vec.FromSlice(vals[lo:lo+d]))
	}
	r, ref := rng.New(seed), rng.New(seed)
	if err := SparsifyRows(&got, keep, r); err != nil {
		t.Fatal(err)
	}
	sparsifyScalar(&want, keep, ref)
	for i := range want.Rows {
		if !sameBits(got.Rows[i], want.Rows[i]) {
			t.Fatalf("keep=%v row %d: %v, want %v", keep, i, got.Rows[i], want.Rows[i])
		}
	}
	if *r != *ref {
		t.Fatalf("keep=%v: generator state differs after thinning", keep)
	}
}

// TestSparsifyRowsMatchesBernoulliLoop: the masked thinning writes the
// bits the branch on each Bernoulli wrote (a dropped −0 or NaN is +0, a
// kept one is scaled) and consumes the same draws.
func TestSparsifyRowsMatchesBernoulliLoop(t *testing.T) {
	for _, keep := range []float64{1e-9, 0.15, 0.5, 1} {
		for seed := uint64(1); seed <= 20; seed++ {
			checkThinning(t, thinValues(), 8, keep, seed)
		}
	}
}

func FuzzSparsifyRows(f *testing.F) {
	f.Add(uint64(1), 0.15, uint8(8), []byte{})
	f.Add(uint64(2), 1.0, uint8(3), []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(3), 1e-9, uint8(1), []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, keep float64, dim uint8, raw []byte) {
		if !(keep > 0 && keep <= 1) {
			if err := SparsifyRows(&Dataset{}, keep, rng.New(seed)); !errors.Is(err, ErrBadShape) {
				t.Fatalf("keep=%v accepted", keep)
			}
			return
		}
		vals := thinValues()
		for ; len(raw) >= 8; raw = raw[8:] {
			vals = append(vals, math.Float64frombits(binary.BigEndian.Uint64(raw)))
		}
		checkThinning(t, vals, int(dim)%16+1, keep, seed)
	})
}
