package vec

import (
	"errors"
	"testing"
)

func TestSparseResetAppendReusesBacking(t *testing.T) {
	var s Sparse
	s.Reset(10)
	s.Append(1, 2)
	s.Append(3, 0) // zero dropped
	s.Append(7, -1)
	if s.NNZ() != 2 || s.Dim != 10 {
		t.Fatalf("after appends: %+v", s)
	}
	if !s.IsSorted() {
		t.Error("appended in order but not sorted")
	}
	cap0 := cap(s.Indices)
	s.Reset(5)
	if s.NNZ() != 0 || s.Dim != 5 {
		t.Errorf("reset: %+v", s)
	}
	s.Append(0, 1)
	if cap(s.Indices) != cap0 {
		t.Error("Reset/Append reallocated the backing array")
	}
}

func TestSparseIsSorted(t *testing.T) {
	s := Sparse{Dim: 4, Indices: []int{2, 1}, Values: []float64{1, 1}}
	if s.IsSorted() {
		t.Error("out-of-order indices reported sorted")
	}
	s = Sparse{Dim: 4, Indices: []int{1, 1}, Values: []float64{1, 1}}
	if s.IsSorted() {
		t.Error("duplicate indices reported sorted")
	}
}

func TestGatherFrom(t *testing.T) {
	x := Dense{10, 20, 30, 40}
	got, err := GatherFrom(nil, x, []int{1, 3})
	if err != nil || len(got) != 2 || got[0] != 20 || got[1] != 40 {
		t.Fatalf("GatherFrom = %v, %v", got, err)
	}
	// Reuse without reallocation.
	buf := got
	got, err = GatherFrom(buf, x, []int{0})
	if err != nil || len(got) != 1 || got[0] != 10 {
		t.Fatalf("reuse GatherFrom = %v, %v", got, err)
	}
	// Dimension-mismatch paths.
	if _, err := GatherFrom(nil, x, []int{4}); !errors.Is(err, ErrDimMismatch) {
		t.Error("out-of-range index accepted")
	}
	if _, err := GatherFrom(nil, x, []int{-1}); !errors.Is(err, ErrDimMismatch) {
		t.Error("negative index accepted")
	}
}

func TestSparseApplyDimMismatch(t *testing.T) {
	s := Sparse{Dim: 5, Indices: []int{2}, Values: []float64{1}}
	if err := s.AddScaledInto(NewDense(4), 1); !errors.Is(err, ErrDimMismatch) {
		t.Error("AddScaledInto accepted wrong-dimension destination")
	}
	if _, err := s.DotDense(NewDense(6)); !errors.Is(err, ErrDimMismatch) {
		t.Error("DotDense accepted wrong-dimension operand")
	}
}
