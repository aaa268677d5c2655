// Package data generates the synthetic datasets used by the regression
// workloads. The paper's experiments need no proprietary data — its claims
// are about the optimization dynamics — so a Gaussian linear-model
// generator with controllable dimension, sample count, conditioning,
// sparsity and noise is the faithful substitute (see DESIGN.md §1).
package data

import (
	"errors"
	"math"

	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// Dataset is a supervised dataset with dense feature rows.
type Dataset struct {
	Rows   []vec.Dense // feature vectors a_i
	Labels []float64   // targets b_i (regression) or ±1 (classification)
	Truth  vec.Dense   // generating model x♮ (for diagnostics)

	slab *[]float64 // the m×d slab Rows are carved from, until Release
}

// rowSlabs holds the row slabs of released datasets for the next
// generator call to reuse.
var rowSlabs vec.Slabs

// Release hands the rows' m×d slab back for the next generated dataset
// to reuse and sets Rows to nil; Labels and Truth stay valid. Call it
// once an oracle has copied what it needs from the rows
// (grad.NewSparseLeastSquares does). Nothing may read a row, or a slice
// of one, after Release.
func (ds *Dataset) Release() {
	if ds.slab != nil {
		rowSlabs.Put(ds.slab)
	}
	ds.slab, ds.Rows = nil, nil
}

// ErrBadShape reports invalid generator parameters.
var ErrBadShape = errors.New("data: invalid shape")

// Len returns the number of samples.
func (ds *Dataset) Len() int { return len(ds.Rows) }

// Dim returns the feature dimension (0 for an empty dataset).
func (ds *Dataset) Dim() int {
	if len(ds.Rows) == 0 {
		return 0
	}
	return ds.Rows[0].Dim()
}

// Gram returns the empirical second-moment matrix (1/m)·Σ a_i a_iᵀ, whose
// extreme eigenvalues give the least-squares strong convexity and
// smoothness constants.
func (ds *Dataset) Gram() (*vec.Sym, error) {
	d := ds.Dim()
	if d == 0 {
		return nil, ErrBadShape
	}
	g := vec.NewSym(d)
	w := 1 / float64(ds.Len())
	for _, r := range ds.Rows {
		if err := g.AddOuter(w, r); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// LinearConfig parameterizes GenLinear.
type LinearConfig struct {
	Samples   int     // m
	Dim       int     // d
	NoiseStd  float64 // label noise standard deviation
	CondExp   float64 // feature scale decay: coord j scaled by CondExp^(-j/(d-1)); 1 = isotropic
	TruthNorm float64 // ‖x♮‖ of the planted model (0 ⇒ 1)
}

// GenLinear generates a linear-regression dataset b = a·x♮ + ξ with
// Gaussian features. CondExp > 1 skews the feature covariance to produce
// an ill-conditioned Gram matrix (condition number ≈ CondExp²).
func GenLinear(cfg LinearConfig, r *rng.Rand) (*Dataset, error) {
	if cfg.Samples <= 0 || cfg.Dim <= 0 || cfg.NoiseStd < 0 {
		return nil, ErrBadShape
	}
	if cfg.CondExp == 0 {
		cfg.CondExp = 1
	}
	if cfg.TruthNorm == 0 {
		cfg.TruthNorm = 1
	}
	scales := coordScales(cfg.Dim, cfg.CondExp)
	truth := randomDirection(cfg.Dim, cfg.TruthNorm, r)
	rows, slab := newRows(cfg.Samples, cfg.Dim)
	ds := &Dataset{
		Rows:   rows,
		Labels: make([]float64, cfg.Samples),
		Truth:  truth,
		slab:   slab,
	}
	for i, row := range ds.Rows {
		r.NormalFill(row)
		for j := range row {
			row[j] *= scales[j]
		}
		ds.Labels[i] = vec.MustDot(row, truth) + cfg.NoiseStd*r.Normal()
	}
	return ds, nil
}

// SparsifyRows zeroes each feature entry independently with probability
// 1−keep and rescales survivors by 1/keep so row second moments are
// preserved in expectation. It models the sparse-gradient workloads the
// Hogwild literature motivates. keep must be in (0, 1].
func SparsifyRows(ds *Dataset, keep float64, r *rng.Rand) error {
	if keep <= 0 || keep > 1 {
		return ErrBadShape
	}
	inv := 1 / keep
	for _, row := range ds.Rows {
		for j, v := range row {
			// The draw is a mask, not a branch, which would mispredict
			// at the sweep's densities: all ones keeps the bits of v·inv
			// (NaN, ±Inf and −0 included), zero leaves +0.
			m := -b2u(r.Bernoulli(keep))
			row[j] = math.Float64frombits(math.Float64bits(v*inv) & m)
		}
	}
	return nil
}

// newRows returns m zeroed rows of dimension d carved from one m×d slab,
// a released dataset's when one is at hand, and the slab. Each row's
// capacity ends at its own last entry, so an append to one row can never
// write into the next.
func newRows(m, d int) ([]vec.Dense, *[]float64) {
	p := rowSlabs.Get(m * d)
	slab := *p
	rows := make([]vec.Dense, m)
	for i := range rows {
		rows[i] = slab[i*d : (i+1)*d : (i+1)*d]
	}
	return rows, p
}

func coordScales(d int, condExp float64) []float64 {
	s := make([]float64, d)
	for j := range s {
		if d == 1 || condExp == 1 {
			s[j] = 1
			continue
		}
		frac := float64(j) / float64(d-1)
		s[j] = math.Pow(condExp, -frac)
	}
	return s
}

func randomDirection(d int, norm float64, r *rng.Rand) vec.Dense {
	v := vec.NewDense(d)
	for {
		r.NormalVector(v, 1)
		if n := v.Norm2(); n > 0 {
			v.Scale(norm / n)
			return v
		}
	}
}

// b2u converts b to 0 or 1; the compiler emits it as a flag set, not a
// branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
