// Package vec provides the dense and sparse vector algebra used by the
// asynchronous-SGD simulator, the gradient oracles, and the martingale
// analysis. It is written against the Go standard library only.
//
// All operations are allocation-conscious: in-place variants are provided
// for everything on the hot path, and the destination-first convention
// (dst, then operands) is used throughout.
package vec

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimMismatch is returned (or passed to panics in must-variants) when two
// vectors of different lengths are combined.
var ErrDimMismatch = errors.New("vec: dimension mismatch")

// Dense is a dense float64 vector. The zero value is an empty vector.
type Dense []float64

// NewDense returns a zero dense vector of dimension d.
func NewDense(d int) Dense { return make(Dense, d) }

// FromSlice copies xs into a fresh Dense so later mutation of xs does not
// alias the result.
func FromSlice(xs []float64) Dense {
	out := make(Dense, len(xs))
	copy(out, xs)
	return out
}

// Constant returns a d-dimensional vector with every entry equal to v.
func Constant(d int, v float64) Dense {
	out := make(Dense, d)
	for i := range out {
		out[i] = v
	}
	return out
}

// Dim returns the dimension of x.
func (x Dense) Dim() int { return len(x) }

// Clone returns a deep copy of x.
func (x Dense) Clone() Dense {
	out := make(Dense, len(x))
	copy(out, x)
	return out
}

// Zero sets every entry of x to 0 in place.
func (x Dense) Zero() {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every entry of x to v in place.
func (x Dense) Fill(v float64) {
	for i := range x {
		x[i] = v
	}
}

// Scale multiplies x by s in place.
func (x Dense) Scale(s float64) {
	for i := range x {
		x[i] *= s
	}
}

// AddScaled performs x += s*y in place (axpy). The dimensions must match.
func (x Dense) AddScaled(s float64, y Dense) error {
	if len(x) != len(y) {
		return fmt.Errorf("axpy %d += s*%d: %w", len(x), len(y), ErrDimMismatch)
	}
	for i := range x {
		x[i] += s * y[i]
	}
	return nil
}

// Add performs x += y in place.
func (x Dense) Add(y Dense) error { return x.AddScaled(1, y) }

// Dot returns the inner product <x, y>.
func Dot(x, y Dense) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("dot %d . %d: %w", len(x), len(y), ErrDimMismatch)
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s, nil
}

// MustDot is Dot for callers that have already validated dimensions; it
// panics on mismatch. Used only on internal hot paths.
func MustDot(x, y Dense) float64 {
	s, err := Dot(x, y)
	if err != nil {
		panic(err)
	}
	return s
}

// Norm2 returns the Euclidean norm ‖x‖₂, guarding against overflow by
// scaling (the same approach as the BLAS dnrm2 reference).
func (x Dense) Norm2() float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm2Sq returns ‖x‖₂². It does not overflow-guard; intended for the
// moderate magnitudes of optimization iterates.
func (x Dense) Norm2Sq() float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// NormInf returns the L∞ norm.
func (x Dense) NormInf() float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Dist2 returns ‖x−y‖₂.
func Dist2(x, y Dense) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("dist %d vs %d: %w", len(x), len(y), ErrDimMismatch)
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// Dist2Sq returns ‖x−y‖₂².
func Dist2Sq(x, y Dense) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("dist %d vs %d: %w", len(x), len(y), ErrDimMismatch)
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s, nil
}

// NNZ returns the number of non-zero entries.
func (x Dense) NNZ() int {
	n := 0
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

// IsFinite reports whether every entry is finite (no NaN/Inf).
func (x Dense) IsFinite() bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether x and y agree entrywise within tol (absolute).
func ApproxEqual(x, y Dense, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the vector compactly for diagnostics.
func (x Dense) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range x {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteByte(']')
	return b.String()
}
