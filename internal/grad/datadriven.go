package grad

import (
	"fmt"
	"math"

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
	cst   Constants
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
	lmin, _, err := g.ExtremeEigenvalues()
	if err != nil {
		return nil, err
	}
	if lmin <= 1e-12 {
		return nil, fmt.Errorf("%w: singular Gram matrix (λmin=%.3g), need m ≥ d and full rank", ErrBadParam, lmin)
	}
	xstar, err := solveNormalEquations(ds, g)
	if err != nil {
		return nil, err
	}
	// Per-sample Lipschitz and second-moment constants.
	var lMax, m2 float64
	for i, a := range ds.Rows {
		an2 := a.Norm2Sq()
		if an2 > lMax {
			lMax = an2
		}
		resid := math.Abs(vec.MustDot(a, xstar) - ds.Labels[i])
		bnd := math.Sqrt(an2) * (math.Sqrt(an2)*r0 + resid)
		if b2 := bnd * bnd; b2 > m2 {
			m2 = b2
		}
	}
	return &LeastSquares{
		ds:    ds,
		xstar: xstar,
		cst:   Constants{C: lmin, L: lMax, M2: m2, R: r0},
	}, nil
}

// solveNormalEquations solves G·x = (1/m)Aᵀb by Gaussian elimination with
// partial pivoting and back substitution: O(d³), about (2/3)·d³ flops,
// the same order as the eigenvalue solve beside it in NewLeastSquares.
func solveNormalEquations(ds *data.Dataset, g *vec.Sym) (vec.Dense, error) {
	d := ds.Dim()
	rhs := vec.NewDense(d)
	w := 1 / float64(ds.Len())
	for i, a := range ds.Rows {
		if err := rhs.AddScaled(w*ds.Labels[i], a); err != nil {
			return nil, err
		}
	}
	// Eliminate on a copy of G; G itself stays intact.
	m := make([]float64, d*d)
	copy(m, g.Data)
	x := rhs.Clone()
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(m[r*d+col]) > math.Abs(m[piv*d+col]) {
				piv = r
			}
		}
		if math.Abs(m[piv*d+col]) < 1e-14 {
			return nil, fmt.Errorf("%w: singular normal equations", ErrBadParam)
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
	return x, nil
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

// Constants implements Oracle.
func (l *LeastSquares) Constants() Constants { return l.cst }

// CloneFor implements Oracle. The dataset is immutable and shared.
func (l *LeastSquares) CloneFor(int) Oracle {
	cp := *l
	cp.xstar = l.xstar.Clone()
	return &cp
}

// Logistic is ℓ2-regularized logistic regression:
//
//	f(x) = (1/m) Σ_i log(1 + exp(−y_i·a_iᵀx)) + (λ/2)‖x‖²
//
// with the uniform-sample oracle g̃(x) = −y_i·σ(−y_i a_iᵀx)·a_i + λx.
// Constants: c = λ; per-sample gradients are (λ + ‖a_i‖²/4)-Lipschitz;
// ‖g̃(x)‖ ≤ ‖a_i‖ + λ(R + ‖x*‖) on the ball.
type Logistic struct {
	ds     *data.Dataset
	lambda float64
	xstar  vec.Dense
	cst    Constants
}

var _ Oracle = (*Logistic)(nil)

// NewLogistic builds the oracle. The optimum is found by full-gradient
// descent to tolerance tol (the objective is λ-strongly convex and smooth,
// so this converges linearly); r0 is the ball radius for M².
func NewLogistic(ds *data.Dataset, lambda, r0 float64) (*Logistic, error) {
	d := ds.Dim()
	if d == 0 || lambda <= 0 || r0 <= 0 {
		return nil, ErrBadParam
	}
	lg := &Logistic{ds: ds, lambda: lambda}
	maxA2 := ds.MaxRowNorm2Sq()
	smooth := lambda + maxA2/4
	x := vec.NewDense(d)
	g := vec.NewDense(d)
	step := 1 / smooth
	for k := 0; k < 20000; k++ {
		lg.FullGrad(g, x)
		if g.Norm2() < 1e-11 {
			break
		}
		_ = x.AddScaled(-step, g)
	}
	lg.xstar = x
	maxA := math.Sqrt(maxA2)
	bnd := maxA + lambda*(r0+x.Norm2())
	lg.cst = Constants{C: lambda, L: smooth, M2: bnd * bnd, R: r0}
	return lg, nil
}

// Dim implements Oracle.
func (l *Logistic) Dim() int { return l.ds.Dim() }

// Value implements Oracle.
func (l *Logistic) Value(x vec.Dense) float64 {
	var s float64
	for i, a := range l.ds.Rows {
		s += math.Log1p(math.Exp(-l.ds.Labels[i] * vec.MustDot(a, x)))
	}
	return s/float64(l.ds.Len()) + 0.5*l.lambda*x.Norm2Sq()
}

// FullGrad implements Oracle.
func (l *Logistic) FullGrad(dst, x vec.Dense) {
	dst.Zero()
	w := 1 / float64(l.ds.Len())
	for i, a := range l.ds.Rows {
		y := l.ds.Labels[i]
		s := sigmoid(-y * vec.MustDot(a, x))
		_ = dst.AddScaled(-w*y*s, a)
	}
	_ = dst.AddScaled(l.lambda, x)
}

// Grad implements Oracle.
func (l *Logistic) Grad(dst, x vec.Dense, r *rng.Rand) {
	i := r.Intn(l.ds.Len())
	a := l.ds.Rows[i]
	y := l.ds.Labels[i]
	s := sigmoid(-y * vec.MustDot(a, x))
	for j := range dst {
		dst[j] = -y*s*a[j] + l.lambda*x[j]
	}
}

// Optimum implements Oracle.
func (l *Logistic) Optimum() vec.Dense { return l.xstar.Clone() }

// Constants implements Oracle.
func (l *Logistic) Constants() Constants { return l.cst }

// CloneFor implements Oracle.
func (l *Logistic) CloneFor(int) Oracle {
	cp := *l
	cp.xstar = l.xstar.Clone()
	return &cp
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
