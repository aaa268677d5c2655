package grad

import (
	"fmt"
	"math"
	"sync"

	"asyncsgd/internal/data"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// LeastSquares is the empirical-risk least-squares objective
//
//	f(x) = (1/2m) Σ_i (a_iᵀx − b_i)²
//
// with the classic SGD oracle: sample i uniformly, g̃(x) = (a_iᵀx − b_i)·a_i.
// Constants follow from the data: c = λmin(G), L = max_i ‖a_i‖² (per-sample
// gradients are ‖a_i‖²-Lipschitz), and on ‖x−x*‖ ≤ R,
// ‖g̃(x)‖ ≤ ‖a_i‖(‖a_i‖R + |a_iᵀx*−b_i|), maximized over samples.
type LeastSquares struct {
	ds    *data.Dataset
	xstar vec.Dense
	cst   Constants // C is read from lmin
	lmin  *lazyMin
}

var _ Oracle = (*LeastSquares)(nil)

// NewLeastSquares builds the oracle, solving for x* and deriving the
// analytic constants from the dataset. r0 is the ball radius for the M²
// bound. It returns an error when the Gram matrix is singular (the
// objective is then not strongly convex and outside the paper's
// assumptions).
func NewLeastSquares(ds *data.Dataset, r0 float64) (*LeastSquares, error) {
	d := ds.Dim()
	if d == 0 || r0 <= 0 {
		return nil, ErrBadParam
	}
	g, err := ds.Gram()
	if err != nil {
		return nil, err
	}
	lmin, err := certifyFullRank(g, make([]float64, d*d))
	if err != nil {
		return nil, err
	}
	xstar := vec.NewDense(d)
	w := 1 / float64(ds.Len())
	for i, a := range ds.Rows {
		if err := xstar.AddScaled(w*ds.Labels[i], a); err != nil {
			return nil, err
		}
	}
	// G is rebuilt if C is ever read, so it is eliminated in place.
	if err := solveNormalEquations(g.Data, xstar); err != nil {
		return nil, err
	}
	cst := Constants{R: r0}
	for i, a := range ds.Rows {
		cst.addSample(a.Norm2Sq(), vec.MustDot(a, xstar), ds.Labels[i])
	}
	return &LeastSquares{ds: ds, xstar: xstar, cst: cst, lmin: lmin}, nil
}

// addSample folds sample (a, b) into the per-sample constants, given
// ‖a‖² and aᵀx*: L = max ‖a‖², and on ‖x−x*‖ ≤ R the gradient bound
// ‖a‖(‖a‖R + |aᵀx*−b|), squared, raises M².
func (c *Constants) addSample(an2, dot, b float64) {
	if an2 > c.L {
		c.L = an2
	}
	resid := math.Abs(dot - b)
	bnd := math.Sqrt(an2) * (math.Sqrt(an2)*c.R + resid)
	if b2 := bnd * bnd; b2 > c.M2 {
		c.M2 = b2
	}
}

// singularFloor is the λmin at or below which a Gram matrix is singular.
const singularFloor = 1e-12

// certifyFullRank decides whether the Gram matrix g is singular, with an
// eigenvalue solve only when a Cholesky certificate cannot decide it. It
// copies g into scratch (length ≥ d²) and leaves g intact.
//
// The certificate is a Cholesky factorisation of G − σI with
// σ = 1e-12 + 1e-9·tr(G), both of which read G's lower triangle as QL
// does. Cholesky is backward stable: a success proves that a matrix within
// about d·ε·tr(G) of G − σI is positive definite. Then G is positive
// definite, ‖G‖₂ ≤ tr(G), and QL (Sym.Eigenvalues, itself accurate to
// about d·ε·‖G‖₂) would report λmin ≥ σ − O(d·ε·tr(G)) > 1e-12: the
// relative margin 1e-9 is about 4.5·10⁶·ε, far above both errors at any d
// whose d² matrix fits in memory. So a success decides exactly what QL
// would, and c = λmin is left for the first Constants call (lazyMin).
//
// A failure decides nothing. It comes from a Gram within the margin of
// singular or from a NaN or ±Inf entry, and QL then runs as it always
// did: its error, or the λmin ≤ 1e-12 it prints in the error, is the
// same, and a λmin above the floor is kept as c. The certificate never
// rejects an instance on its own.
//
// A Sturm count of the eigenvalues below 1e-12 would also decide without
// QL, but it needs the tridiagonal form: the Householder reduction,
// about (2/3)·d³ multiply-adds against the Cholesky's d³/6.
func certifyFullRank(g *vec.Sym, scratch []float64) (*lazyMin, error) {
	if certified(g, scratch) {
		return new(lazyMin), nil
	}
	lo, _, err := g.ExtremeEigenvalues()
	if err != nil {
		return nil, err
	}
	if lo <= singularFloor {
		return nil, fmt.Errorf("%w: singular Gram matrix (λmin=%.3g), need m ≥ d and full rank", ErrBadParam, lo)
	}
	m := new(lazyMin)
	m.once.Do(func() { m.c = lo })
	return m, nil
}

// certified runs certifyFullRank's certificate on a copy of g in scratch.
func certified(g *vec.Sym, scratch []float64) bool {
	d := g.N
	var tr float64
	for i := 0; i < d; i++ {
		tr += g.Data[i*d+i]
	}
	cert := vec.Sym{N: d, Data: scratch[:d*d]}
	copy(cert.Data, g.Data)
	return cert.CholeskyShifted(singularFloor + 1e-9*tr)
}

// lazyMin is the strong-convexity constant c = λmin(G) of a least-squares
// oracle. No sweep cell reads c, so unless construction already had it
// from QL it is computed on the first Constants call, by the same QL on a
// Gram matrix rebuilt with the same bits. CloneFor copies share one
// lazyMin, so its once guards one solve across all of them.
type lazyMin struct {
	once sync.Once
	c    float64
}

// get returns c, building the Gram matrix with gram on the first call. A
// QL that does not converge, which the finite Gram matrix a certificate
// accepted cannot cause, leaves c NaN.
func (m *lazyMin) get(gram func() (*vec.Sym, error)) float64 {
	m.once.Do(func() {
		m.c = math.NaN()
		g, err := gram()
		if err != nil {
			return
		}
		if lo, _, err := g.ExtremeEigenvalues(); err == nil {
			m.c = lo
		}
	})
	return m.c
}

// solveNormalEquations solves G·x = r by Gaussian elimination with
// partial pivoting and back substitution, in place: m holds G row-major
// and is destroyed, x holds r on entry and the solution on return. The
// cost is O(d³), about (2/3)·d³ flops.
func solveNormalEquations(m []float64, x vec.Dense) error {
	d := len(x)
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(m[r*d+col]) > math.Abs(m[piv*d+col]) {
				piv = r
			}
		}
		if math.Abs(m[piv*d+col]) < 1e-14 {
			return fmt.Errorf("%w: singular normal equations", ErrBadParam)
		}
		if piv != col {
			for k := 0; k < d; k++ {
				m[piv*d+k], m[col*d+k] = m[col*d+k], m[piv*d+k]
			}
			x[piv], x[col] = x[col], x[piv]
		}
		inv := 1 / m[col*d+col]
		for r := col + 1; r < d; r++ {
			f := m[r*d+col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < d; k++ {
				m[r*d+k] -= f * m[col*d+k]
			}
			x[r] -= f * x[col]
		}
	}
	for col := d - 1; col >= 0; col-- {
		for r := 0; r < col; r++ {
			f := m[r*d+col] / m[col*d+col]
			x[r] -= f * x[col]
			m[r*d+col] = 0
		}
		x[col] /= m[col*d+col]
	}
	return nil
}

// Dim implements Oracle.
func (l *LeastSquares) Dim() int { return l.ds.Dim() }

// Value implements Oracle.
func (l *LeastSquares) Value(x vec.Dense) float64 {
	var s float64
	for i, a := range l.ds.Rows {
		r := vec.MustDot(a, x) - l.ds.Labels[i]
		s += r * r
	}
	return s / (2 * float64(l.ds.Len()))
}

// FullGrad implements Oracle.
func (l *LeastSquares) FullGrad(dst, x vec.Dense) {
	dst.Zero()
	w := 1 / float64(l.ds.Len())
	for i, a := range l.ds.Rows {
		r := vec.MustDot(a, x) - l.ds.Labels[i]
		_ = dst.AddScaled(w*r, a)
	}
}

// Grad implements Oracle.
func (l *LeastSquares) Grad(dst, x vec.Dense, r *rng.Rand) {
	i := r.Intn(l.ds.Len())
	a := l.ds.Rows[i]
	res := vec.MustDot(a, x) - l.ds.Labels[i]
	for j := range dst {
		dst[j] = res * a[j]
	}
}

// Optimum implements Oracle.
func (l *LeastSquares) Optimum() vec.Dense { return l.xstar.Clone() }

// Constants implements Oracle. The first call computes C (lazyMin).
func (l *LeastSquares) Constants() Constants {
	cst := l.cst
	cst.C = l.lmin.get(l.ds.Gram)
	return cst
}

// CloneFor implements Oracle. The dataset and C are immutable and shared.
func (l *LeastSquares) CloneFor(int) Oracle {
	cp := *l
	cp.xstar = l.xstar.Clone()
	return &cp
}
