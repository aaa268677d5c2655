package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewSparseSortsAndDropsZeros(t *testing.T) {
	s, err := NewSparse(6, []int{4, 1, 3}, []float64{2, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (zero dropped)", s.NNZ())
	}
	if s.Indices[0] != 3 || s.Indices[1] != 4 {
		t.Errorf("indices not sorted: %v", s.Indices)
	}
	if s.Values[0] != -1 || s.Values[1] != 2 {
		t.Errorf("values not carried with their indices: %v", s.Values)
	}
}

func TestNewSparseErrors(t *testing.T) {
	if _, err := NewSparse(3, []int{0}, []float64{1, 2}); err == nil {
		t.Error("want error on length mismatch")
	}
	if _, err := NewSparse(3, []int{5}, []float64{1}); err == nil {
		t.Error("want error on out-of-range index")
	}
	if _, err := NewSparse(3, []int{1, 1}, []float64{1, 2}); err == nil {
		t.Error("want error on duplicate index")
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	x := Dense{0, 1.5, 0, -2, 0}
	s := sparseOf(x)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	back := s.ToDense()
	if !ApproxEqual(x, back, 0) {
		t.Errorf("round trip: %v -> %v", x, back)
	}
}

func TestSparseNorm2Sq(t *testing.T) {
	s := sparseOf(Dense{3, 0, -4})
	if s.Norm2Sq() != 25 {
		t.Errorf("Norm2Sq = %v", s.Norm2Sq())
	}
}

func TestSparseAddScaledInto(t *testing.T) {
	s := sparseOf(Dense{1, 0, 2})
	dst := Dense{10, 10, 10}
	if err := s.AddScaledInto(dst, -1); err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(dst, Dense{9, 10, 8}, 0) {
		t.Errorf("dst = %v", dst)
	}
	if err := s.AddScaledInto(Dense{1}, 1); err == nil {
		t.Error("want dim mismatch error")
	}
}

func TestSparseDotDense(t *testing.T) {
	s := sparseOf(Dense{1, 0, 2})
	got, err := s.DotDense(Dense{3, 9, 4})
	if err != nil || got != 11 {
		t.Errorf("DotDense = %v err=%v, want 11", got, err)
	}
	if _, err := s.DotDense(Dense{1}); err == nil {
		t.Error("want dim mismatch error")
	}
}

// Property: sparse ops agree with their dense counterparts.
func TestPropertySparseMatchesDense(t *testing.T) {
	f := func(a [7]float64, mask uint8) bool {
		dn := make(Dense, 7)
		for i := range dn {
			if mask&(1<<uint(i)) != 0 {
				dn[i] = clip(a[:])[i]
			}
		}
		s := sparseOf(dn)
		if math.Abs(s.Norm2Sq()-dn.Norm2Sq()) > 1e-6*(1+dn.Norm2Sq()) {
			return false
		}
		other := Constant(7, 0.5)
		sd, err := s.DotDense(other)
		if err != nil {
			return false
		}
		dd := MustDot(dn, other)
		return math.Abs(sd-dd) <= 1e-6*(1+math.Abs(dd))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sparseOf is x's sparse form: NewSparse over every index, which drops
// the zeros.
func sparseOf(x Dense) Sparse {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	s, err := NewSparse(len(x), idx, x)
	if err != nil {
		panic(err)
	}
	return s
}
