// Package grad provides the stochastic gradient oracles the reproduction
// optimizes: the paper's Section-5 one-dimensional quadratic, isotropic and
// anisotropic strongly convex quadratics and linear least squares over
// synthetic datasets, plus a single-non-zero-coordinate wrapper matching
// the sparsity assumption of De Sa et al. that the paper's analysis
// removes.
//
// Every oracle reports its analytic constants: c (strong convexity, Eq. 2),
// L (expected Lipschitz constant of the stochastic gradient, Eq. 3), and a
// second-moment bound M² valid on a stated ball around the optimum
// (Eq. 4) — exactly the quantities entering the paper's learning-rate
// formulas and failure-probability bounds.
package grad

import (
	"errors"
	"math"

	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// Constants are the analytic problem constants of the paper's assumptions.
type Constants struct {
	C  float64 // strong convexity (Eq. 2)
	L  float64 // expected Lipschitz constant of g̃ (Eq. 3)
	M2 float64 // second-moment bound E‖g̃(x)‖² ≤ M² on the stated ball (Eq. 4)
	R  float64 // radius of the ball ‖x−x*‖ ≤ R on which M² is valid
}

// Oracle is a stochastic-gradient oracle for a convex objective f.
// Implementations must be deterministic given the generator state, and
// must only be used from one goroutine at a time (the shm machine is
// sequential; the real-thread runtime gives each worker its own oracle
// clone via CloneFor).
type Oracle interface {
	// Dim returns the model dimension d.
	Dim() int
	// Value returns f(x).
	Value(x vec.Dense) float64
	// FullGrad writes ∇f(x) into dst.
	FullGrad(dst, x vec.Dense)
	// Grad writes a stochastic gradient g̃(x) with E[g̃(x)] = ∇f(x) into
	// dst, drawing randomness from r.
	Grad(dst, x vec.Dense, r *rng.Rand)
	// Optimum returns the minimizer x*.
	Optimum() vec.Dense
	// Constants returns the analytic constants.
	Constants() Constants
	// CloneFor returns an independent oracle for a worker thread; shared
	// immutable data (datasets) may be aliased.
	CloneFor(worker int) Oracle
}

// ErrBadParam reports invalid oracle parameters.
var ErrBadParam = errors.New("grad: invalid parameter")

// Quad1D is the paper's Section-5 objective: f(x) = ½x² with noisy
// gradients g̃(x) = x − ũ, ũ ~ N(0, σ²). Its minimum is 0 and
// E[g̃(x)] = x = ∇f(x).
type Quad1D struct {
	Sigma float64 // noise standard deviation
	R0    float64 // initial radius (for the M² bound)
}

var _ Oracle = (*Quad1D)(nil)

// NewQuad1D validates parameters and returns the Section-5 oracle.
func NewQuad1D(sigma, r0 float64) (*Quad1D, error) {
	if sigma < 0 || r0 <= 0 {
		return nil, ErrBadParam
	}
	return &Quad1D{Sigma: sigma, R0: r0}, nil
}

// Dim implements Oracle.
func (q *Quad1D) Dim() int { return 1 }

// Value implements Oracle.
func (q *Quad1D) Value(x vec.Dense) float64 { return 0.5 * x[0] * x[0] }

// FullGrad implements Oracle.
func (q *Quad1D) FullGrad(dst, x vec.Dense) { dst[0] = x[0] }

// Grad implements Oracle.
func (q *Quad1D) Grad(dst, x vec.Dense, r *rng.Rand) {
	dst[0] = x[0] - q.Sigma*r.Normal()
}

// Optimum implements Oracle.
func (q *Quad1D) Optimum() vec.Dense { return vec.Dense{0} }

// Constants implements Oracle. On |x| ≤ R0: E g̃² = x² + σ² ≤ R0² + σ².
func (q *Quad1D) Constants() Constants {
	return Constants{C: 1, L: 1, M2: q.R0*q.R0 + q.Sigma*q.Sigma, R: q.R0}
}

// CloneFor implements Oracle.
func (q *Quad1D) CloneFor(int) Oracle { cp := *q; return &cp }

// gradCoord implements the separability capability (coordOracle): the
// stochastic gradient is x − σ·ũ in its only coordinate.
func (q *Quad1D) gradCoord(_ int, xj float64, r *rng.Rand) float64 {
	return xj - q.Sigma*r.Normal()
}

// Quadratic is the anisotropic strongly convex quadratic
//
//	f(x) = ½ Σ_j λ_j (x_j − x*_j)²
//
// with additive Gaussian gradient noise: g̃(x) = Λ(x−x*) + σ·ξ, ξ ~ N(0, I).
// With Λ = cI it is the isotropic test problem. All constants are exact:
// c = min λ, L = max λ (E‖g̃(x)−g̃(y)‖ = ‖Λ(x−y)‖ ≤ λmax‖x−y‖),
// E‖g̃(x)‖² = ‖Λ(x−x*)‖² + dσ² ≤ λmax²R² + dσ² on ‖x−x*‖ ≤ R.
type Quadratic struct {
	Lambda vec.Dense // positive eigenvalues λ_j
	XStar  vec.Dense // optimum
	Sigma  float64   // per-coordinate noise stddev
	R0     float64   // M² ball radius
}

var _ Oracle = (*Quadratic)(nil)

// NewIsoQuadratic returns the isotropic quadratic f(x) = (c/2)‖x−x*‖².
func NewIsoQuadratic(d int, c, sigma, r0 float64, xstar vec.Dense) (*Quadratic, error) {
	if d <= 0 || c <= 0 || sigma < 0 || r0 <= 0 {
		return nil, ErrBadParam
	}
	if xstar == nil {
		xstar = vec.NewDense(d)
	}
	if xstar.Dim() != d {
		return nil, ErrBadParam
	}
	return &Quadratic{
		Lambda: vec.Constant(d, c),
		XStar:  xstar.Clone(),
		Sigma:  sigma,
		R0:     r0,
	}, nil
}

// NewQuadratic returns the anisotropic quadratic with the given spectrum.
func NewQuadratic(lambda, xstar vec.Dense, sigma, r0 float64) (*Quadratic, error) {
	if lambda.Dim() == 0 || sigma < 0 || r0 <= 0 {
		return nil, ErrBadParam
	}
	for _, l := range lambda {
		if l <= 0 {
			return nil, ErrBadParam
		}
	}
	if xstar == nil {
		xstar = vec.NewDense(lambda.Dim())
	}
	if xstar.Dim() != lambda.Dim() {
		return nil, ErrBadParam
	}
	return &Quadratic{
		Lambda: lambda.Clone(),
		XStar:  xstar.Clone(),
		Sigma:  sigma,
		R0:     r0,
	}, nil
}

// Dim implements Oracle.
func (q *Quadratic) Dim() int { return q.Lambda.Dim() }

// Value implements Oracle.
func (q *Quadratic) Value(x vec.Dense) float64 {
	var s float64
	for j := range x {
		d := x[j] - q.XStar[j]
		s += q.Lambda[j] * d * d
	}
	return 0.5 * s
}

// FullGrad implements Oracle.
func (q *Quadratic) FullGrad(dst, x vec.Dense) {
	for j := range dst {
		dst[j] = q.Lambda[j] * (x[j] - q.XStar[j])
	}
}

// Grad implements Oracle.
func (q *Quadratic) Grad(dst, x vec.Dense, r *rng.Rand) {
	for j := range dst {
		dst[j] = q.Lambda[j]*(x[j]-q.XStar[j]) + q.Sigma*r.Normal()
	}
}

// Optimum implements Oracle.
func (q *Quadratic) Optimum() vec.Dense { return q.XStar.Clone() }

// Constants implements Oracle.
func (q *Quadratic) Constants() Constants {
	lmin, lmax := q.Lambda[0], q.Lambda[0]
	for _, l := range q.Lambda {
		lmin = math.Min(lmin, l)
		lmax = math.Max(lmax, l)
	}
	d := float64(q.Dim())
	return Constants{
		C:  lmin,
		L:  lmax,
		M2: lmax*lmax*q.R0*q.R0 + d*q.Sigma*q.Sigma,
		R:  q.R0,
	}
}

// CloneFor implements Oracle.
func (q *Quadratic) CloneFor(int) Oracle {
	cp := *q
	cp.Lambda = q.Lambda.Clone()
	cp.XStar = q.XStar.Clone()
	return &cp
}

// gradCoord implements the separability capability (coordOracle): the
// quadratic's stochastic gradient is coordinate-wise, so entry j depends
// on x_j alone.
func (q *Quadratic) gradCoord(j int, xj float64, r *rng.Rand) float64 {
	return q.Lambda[j]*(xj-q.XStar[j]) + q.Sigma*r.Normal()
}

// SingleCoordinate wraps an oracle so that each stochastic gradient has
// exactly one non-zero entry while remaining unbiased: it samples a
// uniform coordinate j and returns d·g̃(x)_j·e_j. This is the sparsity
// regime required by the prior analysis of De Sa et al. (Theorem 3.1/6.3
// in the paper) which the paper's own analysis eliminates; it exists for
// the E1/E5 ablation comparing the two regimes.
//
// Second moment: E‖d·g̃_j e_j‖² = d·E‖g̃‖², so M² scales by d.
type SingleCoordinate struct {
	Base Oracle

	g       vec.Dense // gradient scratch
	xbuf    vec.Dense // view scratch for the dense sparse-path fallback
	planJ   int       // coordinate drawn by PlanSparse
	support []int     // one-coordinate support scratch
	full    []int     // 0..d-1, the dense-fallback read support
}

var _ Oracle = (*SingleCoordinate)(nil)

// NewSingleCoordinate wraps base.
func NewSingleCoordinate(base Oracle) *SingleCoordinate {
	return &SingleCoordinate{Base: base, g: vec.NewDense(base.Dim())}
}

// Dim implements Oracle.
func (s *SingleCoordinate) Dim() int { return s.Base.Dim() }

// Value implements Oracle.
func (s *SingleCoordinate) Value(x vec.Dense) float64 { return s.Base.Value(x) }

// FullGrad implements Oracle.
func (s *SingleCoordinate) FullGrad(dst, x vec.Dense) { s.Base.FullGrad(dst, x) }

// Grad implements Oracle.
func (s *SingleCoordinate) Grad(dst, x vec.Dense, r *rng.Rand) {
	s.Base.Grad(s.g, x, r)
	j := r.Intn(len(dst))
	dst.Zero()
	dst[j] = float64(len(dst)) * s.g[j]
}

// Optimum implements Oracle.
func (s *SingleCoordinate) Optimum() vec.Dense { return s.Base.Optimum() }

// Constants implements Oracle.
func (s *SingleCoordinate) Constants() Constants {
	c := s.Base.Constants()
	d := float64(s.Base.Dim())
	c.M2 *= d
	c.L *= d // E‖g̃(x)−g̃(y)‖ ≤ d·L‖x−y‖ coordinate-wise worst case
	return c
}

// CloneFor implements Oracle.
func (s *SingleCoordinate) CloneFor(w int) Oracle {
	return NewSingleCoordinate(s.Base.CloneFor(w))
}

// EstimateM2 measures an empirical second-moment bound max over sample
// points of E‖g̃(x)‖² via Monte Carlo on the ball ‖x−x*‖ ≤ r. It is a
// diagnostic for oracles whose analytic M² is loose; experiments use the
// analytic constants.
func EstimateM2(o Oracle, r float64, points, draws int, gen *rng.Rand) float64 {
	d := o.Dim()
	x := vec.NewDense(d)
	g := vec.NewDense(d)
	dir := vec.NewDense(d)
	xstar := o.Optimum()
	var worst float64
	for p := 0; p < points; p++ {
		gen.NormalVector(dir, 1)
		nrm := dir.Norm2()
		if nrm == 0 {
			continue
		}
		scale := r * gen.Float64() / nrm
		for j := range x {
			x[j] = xstar[j] + scale*dir[j]
		}
		var acc float64
		for k := 0; k < draws; k++ {
			o.Grad(g, x, gen)
			acc += g.Norm2Sq()
		}
		if m := acc / float64(draws); m > worst {
			worst = m
		}
	}
	return worst
}
