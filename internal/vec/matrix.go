package vec

import (
	"fmt"
	"math"
	"slices"
)

// Sym is a dense symmetric d×d matrix stored in full. It exists to
// accumulate the Gram matrix of a dataset (AddOuter, AddOuterSparse),
// certify that it has full rank (CholeskyShifted) and read off its
// smallest eigenvalue (Eigenvalues), the strong-convexity constant c of
// least squares.
type Sym struct {
	N    int
	Data []float64 // row-major, length N*N
}

// NewSym returns a zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	return &Sym{N: n, Data: make([]float64, n*n)}
}

// Set sets elements (i, j) and (j, i).
func (s *Sym) Set(i, j int, v float64) {
	s.Data[i*s.N+j] = v
	s.Data[j*s.N+i] = v
}

// AddOuter performs s += w·x·xᵀ (rank-one update), used to accumulate Gram
// matrices. Terms with a zero x entry are skipped, so a sparse row costs
// O(nnz²), not O(d²). For finite w and x this is bit-identical to the
// full product: a skipped term is ±0, and adding ±0 changes only a −0
// entry, which a matrix built from NewSym by AddOuter never holds.
func (s *Sym) AddOuter(w float64, x Dense) error {
	if len(x) != s.N {
		return fmt.Errorf("outer: dim %d vs %d: %w", len(x), s.N, ErrDimMismatch)
	}
	// Gather the support once: a zero test inside the d² loop mispredicts
	// at the sweep's row densities and costs more than it saves.
	var buf [64]int
	nz := buf[:0]
	if len(x) > len(buf) {
		nz = make([]int, 0, len(x))
	}
	for i, v := range x {
		if v != 0 {
			nz = append(nz, i)
		}
	}
	for _, i := range nz {
		xi := w * x[i]
		row := s.Data[i*s.N : (i+1)*s.N]
		for _, j := range nz {
			row[j] += xi * x[j]
		}
	}
	return nil
}

// AddOuterSparse performs s += w·x·xᵀ for a sparse x. Its products and
// their order are those of AddOuter on x.ToDense(): the support is x's
// indices in increasing order and every stored value is non-zero, so a
// Gram matrix accumulated from CSR rows is bit-identical to one
// accumulated from the dense rows they were compacted from.
func (s *Sym) AddOuterSparse(w float64, x Sparse) error {
	if x.Dim != s.N {
		return fmt.Errorf("outer: dim %d vs %d: %w", x.Dim, s.N, ErrDimMismatch)
	}
	for a, i := range x.Indices {
		xi := w * x.Values[a]
		row := s.Data[i*s.N : (i+1)*s.N]
		for b, j := range x.Indices {
			row[j] += xi * x.Values[b]
		}
	}
	return nil
}

// CholeskyShifted reports whether s − σI is positive definite, by an
// in-place Cholesky factorisation that reads and overwrites only the
// lower triangle, diagonal included. It returns true when every pivot is
// positive and finite; any NaN or ±Inf in the lower triangle makes some
// pivot NaN or infinite and so returns false. The factorisation stops at
// the first failing pivot, leaving s partly factored. The cost is about
// d³/6 multiply-adds, a quarter of Eigenvalues' Householder reduction.
func (s *Sym) CholeskyShifted(sigma float64) bool {
	n := s.N
	a := s.Data
	for i := 0; i < n; i++ {
		ri := a[i*n : i*n+i+1]
		// L_ij = (a_ij − Σ_{k<j} L_ik·L_jk) / L_jj for j < i.
		for j := 0; j < i; j++ {
			v := ri[j]
			for k, ljk := range a[j*n : j*n+j] {
				v -= ri[k] * ljk
			}
			ri[j] = v / a[j*n+j]
		}
		p := ri[i] - sigma
		for _, lik := range ri[:i] {
			p -= lik * lik
		}
		if !(p > 0 && p <= math.MaxFloat64) {
			return false
		}
		ri[i] = math.Sqrt(p)
	}
	return true
}

// Eigenvalues returns all eigenvalues of s in ascending order. It
// reduces s to tridiagonal form by Householder reflections and then
// diagonalises the tridiagonal matrix by QL iteration with implicit
// Wilkinson shifts (EISPACK tred1 + tql1: eigenvalues only, no vectors).
// The cost is O(d³) with a small constant, about (4/3)·d³ flops for the
// reduction plus O(d²) for QL.
//
// The accuracy is absolute, not relative: every eigenvalue is correct to
// a small multiple of machine epsilon times ‖s‖, so eigenvalues much
// smaller than λmax carry no relative accuracy. That suffices for the
// only use, the analytic constants of a data-defined objective: a
// singularity test λmin ≤ 1e-12 where CholeskyShifted cannot decide it,
// and the strong-convexity constant C.
//
// It returns an error, never loops, when QL does not converge within a
// fixed number of iterations per eigenvalue (non-finite input).
func (s *Sym) Eigenvalues() ([]float64, error) {
	n := s.N
	a := make([]float64, len(s.Data))
	copy(a, s.Data)
	d := make([]float64, n) // diagonal, then eigenvalues
	e := make([]float64, n) // sub-diagonal: e[i] couples rows i-1 and i
	tridiagonalize(a, n, d, e)
	if err := tql1(d, e); err != nil {
		return nil, err
	}
	slices.Sort(d)
	return d, nil
}

// tridiagonalize reduces the symmetric n×n row-major matrix a (its lower
// triangle is read; a is overwritten) to tridiagonal form by Householder
// reflections, writing the diagonal to d and the sub-diagonal to e[1:]
// (e[0] is scratch).
func tridiagonalize(a []float64, n int, d, e []float64) {
	for i := n - 1; i > 0; i-- {
		l := i - 1
		ri := a[i*n : i*n+i] // row i left of the diagonal
		var scale float64
		if l > 0 {
			for _, v := range ri {
				scale += math.Abs(v)
			}
		}
		if scale == 0 {
			// Nothing to annihilate: row i is already tridiagonal.
			e[i] = ri[l]
			continue
		}
		var h float64
		for k := range ri {
			ri[k] /= scale
			h += ri[k] * ri[k]
		}
		f := ri[l]
		g := -math.Copysign(math.Sqrt(h), f)
		e[i] = scale * g
		h -= f * g
		ri[l] = f - g
		// p = A·u/h into e[0:i], then K = uᵀp/2h.
		f = 0
		for j := 0; j <= l; j++ {
			g = 0
			for k := 0; k <= j; k++ {
				g += a[j*n+k] * ri[k]
			}
			for k := j + 1; k <= l; k++ {
				g += a[k*n+j] * ri[k]
			}
			e[j] = g / h
			f += e[j] * ri[j]
		}
		hh := f / (h + h)
		// A ← A − u·qᵀ − q·uᵀ with q = p − K·u (lower triangle only).
		for j := 0; j <= l; j++ {
			f = ri[j]
			g = e[j] - hh*f
			e[j] = g
			rj := a[j*n : j*n+j+1]
			for k := range rj {
				rj[k] -= f*e[k] + g*ri[k]
			}
		}
	}
	for i := 0; i < n; i++ {
		d[i] = a[i*n+i]
	}
}

// qlMaxIters caps the QL iterations spent on any one eigenvalue; it
// converges in two or three for finite input.
const qlMaxIters = 60

// tql1 overwrites d with the eigenvalues (unordered) of the symmetric
// tridiagonal matrix with diagonal d and sub-diagonal e[1:], by QL
// iteration with implicit shifts. e is destroyed.
func tql1(d, e []float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	copy(e, e[1:])
	e[n-1] = 0
	for l := 0; l < n; l++ {
	sweep:
		for iter := 0; ; iter++ {
			// Find the first negligible sub-diagonal element at or after l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 0x1p-52*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == qlMaxIters {
				return fmt.Errorf("eigenvalues: QL did not converge after %d iterations", qlMaxIters)
			}
			// Wilkinson shift from the leading 2×2 block.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from underflow: deflate and restart.
					d[i+1] -= p
					e[m] = 0
					continue sweep
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// ExtremeEigenvalues returns (λmin, λmax).
func (s *Sym) ExtremeEigenvalues() (lo, hi float64, err error) {
	eig, err := s.Eigenvalues()
	if err != nil {
		return 0, 0, err
	}
	return eig[0], eig[len(eig)-1], nil
}
