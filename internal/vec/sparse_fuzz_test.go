package vec

import (
	"math"
	"testing"
)

// decodePairs derives (dim, indices, values) from fuzz bytes. Indices are
// signed bytes so negative and out-of-range indices are generated, values
// are small signed integers so exact zeros and duplicates are frequent.
func decodePairs(dim uint8, data []byte) (int, []int, []float64) {
	d := int(dim)%64 + 1
	n := len(data) / 2
	idx := make([]int, 0, n)
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx = append(idx, int(int8(data[2*i])))
		vals = append(vals, float64(int8(data[2*i+1]))/4)
	}
	return d, idx, vals
}

// FuzzNewSparse checks the constructor's contract on arbitrary inputs:
// out-of-range indices and duplicates are rejected; accepted vectors are
// strictly sorted, zero-free, in range, and agree with a dense reference
// accumulation entry by entry.
func FuzzNewSparse(f *testing.F) {
	f.Add(uint8(8), []byte{})                             // empty
	f.Add(uint8(8), []byte{0, 4, 1, 8, 2, 12})            // sorted, positive
	f.Add(uint8(8), []byte{5, 4, 1, 8, 3, 12})            // unsorted
	f.Add(uint8(8), []byte{2, 4, 2, 8})                   // duplicate index
	f.Add(uint8(8), []byte{1, 0, 3, 0})                   // all-zero values
	f.Add(uint8(4), []byte{200, 4})                       // negative index (int8(200) = -56)
	f.Add(uint8(4), []byte{63, 4})                        // index ≥ dim
	f.Add(uint8(64), []byte{0, 255, 63, 1, 31, 0, 7, 13}) // mixed
	f.Fuzz(func(t *testing.T, dim uint8, data []byte) {
		d, idx, vals := decodePairs(dim, data)
		s, err := NewSparse(d, idx, vals)
		// Reference semantics: reject out-of-range; reject duplicates
		// among non-zero entries; otherwise the result is the zero-dropped
		// map idx[i] → vals[i].
		ref := make(map[int]float64)
		wantErr := false
		for k, i := range idx {
			if i < 0 || i >= d {
				wantErr = true
				break
			}
			if vals[k] == 0 {
				continue
			}
			if _, dup := ref[i]; dup {
				wantErr = true
				break
			}
			ref[i] = vals[k]
		}
		if wantErr {
			if err == nil {
				t.Fatalf("NewSparse(%d, %v, %v) accepted invalid input", d, idx, vals)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewSparse(%d, %v, %v) rejected valid input: %v", d, idx, vals, err)
		}
		if s.Dim != d || s.NNZ() != len(ref) {
			t.Fatalf("dim/nnz mismatch: %+v vs %d entries", s, len(ref))
		}
		if !s.IsSorted() {
			t.Fatalf("indices not strictly sorted: %v", s.Indices)
		}
		for k, i := range s.Indices {
			if i < 0 || i >= d {
				t.Fatalf("stored index %d out of range [0,%d)", i, d)
			}
			if s.Values[k] == 0 {
				t.Fatalf("stored zero value at index %d", i)
			}
			if s.Values[k] != ref[i] {
				t.Fatalf("value at %d: %v, want %v", i, s.Values[k], ref[i])
			}
		}
		dense := s.ToDense()
		for i := 0; i < d; i++ {
			if dense[i] != ref[i] {
				t.Fatalf("ToDense[%d] = %v, want %v", i, dense[i], ref[i])
			}
		}
	})
}

// FuzzAddScaledInto checks the scatter-apply kernel against a dense
// reference: dst += c·s must touch exactly the stored support and agree
// bitwise with the dense AXPY.
func FuzzAddScaledInto(f *testing.F) {
	f.Add(uint8(8), []byte{0, 4, 1, 8, 2, 12}, int8(-3), int8(2))
	f.Add(uint8(4), []byte{1, 4}, int8(0), int8(1)) // c = 0
	f.Add(uint8(16), []byte{}, int8(5), int8(-1))   // empty vector
	f.Add(uint8(64), []byte{63, 1, 0, 255}, int8(7), int8(3))
	f.Fuzz(func(t *testing.T, dim uint8, data []byte, cRaw, x0Raw int8) {
		d, idx, vals := decodePairs(dim, data)
		s, err := NewSparse(d, idx, vals)
		if err != nil {
			t.Skip() // constructor fuzz covers rejection
		}
		c := float64(cRaw) / 8
		x0 := float64(x0Raw) / 4

		dst := Constant(d, x0)
		if err := s.AddScaledInto(dst, c); err != nil {
			t.Fatalf("AddScaledInto on matching dims failed: %v", err)
		}
		ref := Constant(d, x0)
		_ = ref.AddScaled(c, s.ToDense())
		for i := 0; i < d; i++ {
			if dst[i] != ref[i] && !(math.IsNaN(dst[i]) && math.IsNaN(ref[i])) {
				t.Fatalf("dst[%d] = %v, want %v (c=%v, s=%+v)", i, dst[i], ref[i], c, s)
			}
		}

		// Dimension mismatch must be rejected and leave dst untouched.
		short := NewDense(d + 1)
		if err := s.AddScaledInto(short, c); err == nil && s.Dim != short.Dim() {
			t.Fatalf("dim mismatch accepted: %d into %d", s.Dim, short.Dim())
		}
	})
}
