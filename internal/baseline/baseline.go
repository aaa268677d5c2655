// Package baseline provides the non-concurrent comparison algorithm: the
// sequential SGD iteration the paper's bounds are measured against
// (Theorem 3.1 / the "no adversary" side of Section 5). A mini-batch
// variant is the same iteration over a grad.MiniBatch oracle.
package baseline

import (
	"errors"
	"fmt"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// ErrBadConfig reports invalid baseline parameters.
var ErrBadConfig = errors.New("baseline: invalid configuration")

// SeqConfig parameterizes a sequential SGD run.
type SeqConfig struct {
	Oracle    grad.Oracle
	X0        vec.Dense // nil ⇒ zero vector
	Alpha     float64
	Iters     int
	Seed      uint64
	TrackDist bool // record ‖x_t − x*‖² for every t
}

// SeqResult is the outcome of a sequential run.
type SeqResult struct {
	Final  vec.Dense
	DistSq []float64 // per-iteration squared distance (TrackDist)
}

// RunSequential executes x_{t+1} = x_t − α·g̃(x_t) for Iters steps.
func RunSequential(cfg SeqConfig) (*SeqResult, error) {
	if cfg.Oracle == nil || cfg.Alpha <= 0 || cfg.Iters <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	d := cfg.Oracle.Dim()
	x := cfg.X0
	if x == nil {
		x = vec.NewDense(d)
	} else {
		x = x.Clone()
	}
	if x.Dim() != d {
		return nil, fmt.Errorf("%w: X0 dim %d vs oracle %d", ErrBadConfig, x.Dim(), d)
	}
	r := rng.New(cfg.Seed)
	xstar := cfg.Oracle.Optimum()
	g := vec.NewDense(d)
	res := &SeqResult{}
	if cfg.TrackDist {
		res.DistSq = make([]float64, 0, cfg.Iters+1)
		d2, err := vec.Dist2Sq(x, xstar)
		if err != nil {
			return nil, err
		}
		res.DistSq = append(res.DistSq, d2)
	}
	for t := 0; t < cfg.Iters; t++ {
		cfg.Oracle.Grad(g, x, r)
		if err := x.AddScaled(-cfg.Alpha, g); err != nil {
			return nil, err
		}
		if cfg.TrackDist {
			d2, err := vec.Dist2Sq(x, xstar)
			if err != nil {
				return nil, err
			}
			res.DistSq = append(res.DistSq, d2)
		}
	}
	res.Final = x
	return res, nil
}

// HitTime returns the first index t with DistSq[t] ≤ eps, or −1. Requires
// TrackDist.
func (r *SeqResult) HitTime(eps float64) int {
	for t, d2 := range r.DistSq {
		if d2 <= eps {
			return t
		}
	}
	return -1
}
