package vec

import (
	"fmt"
	"sort"
)

// Sparse is a sparse vector in coordinate form. Indices are strictly
// increasing; Values[i] is the entry at Indices[i]. Dim is the logical
// dimension. The zero value is an empty vector of dimension 0.
type Sparse struct {
	Dim     int
	Indices []int
	Values  []float64
}

// NewSparse builds a Sparse of dimension d from parallel (index, value)
// slices. The pairs are copied, sorted by index, zero values dropped, and
// duplicate indices rejected.
func NewSparse(d int, indices []int, values []float64) (Sparse, error) {
	if len(indices) != len(values) {
		return Sparse{}, fmt.Errorf("sparse: %d indices vs %d values: %w",
			len(indices), len(values), ErrDimMismatch)
	}
	type pair struct {
		i int
		v float64
	}
	pairs := make([]pair, 0, len(indices))
	for k, idx := range indices {
		if idx < 0 || idx >= d {
			return Sparse{}, fmt.Errorf("sparse: index %d out of range [0,%d)", idx, d)
		}
		if values[k] == 0 {
			continue
		}
		pairs = append(pairs, pair{idx, values[k]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].i < pairs[b].i })
	out := Sparse{
		Dim:     d,
		Indices: make([]int, 0, len(pairs)),
		Values:  make([]float64, 0, len(pairs)),
	}
	for k, p := range pairs {
		if k > 0 && pairs[k-1].i == p.i {
			return Sparse{}, fmt.Errorf("sparse: duplicate index %d", p.i)
		}
		out.Indices = append(out.Indices, p.i)
		out.Values = append(out.Values, p.v)
	}
	return out, nil
}

// ToDense materializes s as a dense vector.
func (s Sparse) ToDense() Dense {
	out := make(Dense, s.Dim)
	for k, i := range s.Indices {
		out[i] = s.Values[k]
	}
	return out
}

// NNZ returns the number of stored (non-zero) entries.
func (s Sparse) NNZ() int { return len(s.Indices) }

// Reset clears s to an empty vector of dimension d, keeping the backing
// arrays. It is the entry point of the allocation-free hot path: a worker
// owns one Sparse and Reset/Append-s into it every iteration.
func (s *Sparse) Reset(d int) {
	s.Dim = d
	s.Indices = s.Indices[:0]
	s.Values = s.Values[:0]
}

// Append adds entry (i, v) to s without allocation once capacity has
// grown. Zero values are dropped. Callers on the hot path must append in
// strictly increasing index order (the invariant every Sparse consumer
// assumes); Append does not re-sort.
func (s *Sparse) Append(i int, v float64) {
	if v == 0 {
		return
	}
	s.Indices = append(s.Indices, i)
	s.Values = append(s.Values, v)
}

// IsSorted reports whether the indices are strictly increasing (the
// invariant Append-built vectors must maintain).
func (s Sparse) IsSorted() bool {
	for k := 1; k < len(s.Indices); k++ {
		if s.Indices[k-1] >= s.Indices[k] {
			return false
		}
	}
	return true
}

// GatherFrom fills dst[k] = x[support[k]] for a dense source, reusing
// dst's capacity. It is the sparse view-assembly primitive: O(|support|)
// instead of an O(d) snapshot.
func GatherFrom(dst []float64, x Dense, support []int) ([]float64, error) {
	dst = dst[:0]
	for _, i := range support {
		if i < 0 || i >= len(x) {
			return dst, fmt.Errorf("gather index %d out of range [0,%d): %w",
				i, len(x), ErrDimMismatch)
		}
		dst = append(dst, x[i])
	}
	return dst, nil
}

// Norm2Sq returns ‖s‖₂².
func (s Sparse) Norm2Sq() float64 {
	var sum float64
	for _, v := range s.Values {
		sum += v * v
	}
	return sum
}

// AddScaledInto performs dst += c*s where dst is dense.
func (s Sparse) AddScaledInto(dst Dense, c float64) error {
	if len(dst) != s.Dim {
		return fmt.Errorf("sparse axpy into dim %d from dim %d: %w",
			len(dst), s.Dim, ErrDimMismatch)
	}
	for k, i := range s.Indices {
		dst[i] += c * s.Values[k]
	}
	return nil
}

// DotDense returns <s, x> for dense x.
func (s Sparse) DotDense(x Dense) (float64, error) {
	if len(x) != s.Dim {
		return 0, fmt.Errorf("sparse dot dense: dim %d vs %d: %w",
			s.Dim, len(x), ErrDimMismatch)
	}
	var sum float64
	for k, i := range s.Indices {
		sum += s.Values[k] * x[i]
	}
	return sum, nil
}
