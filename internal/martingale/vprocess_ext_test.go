// The V-process test drives the simulated machine, and internal/core
// imports martingale, so it lives in the external test package.
package martingale_test

import (
	"math"
	"testing"

	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/martingale"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

// TestVProcessSupermartingale validates the Theorem-6.5 construction
// end-to-end: along adversarial lock-free trajectories with the
// Corollary-6.7 step size, the corrected process V_t must drift downward
// on average even though W_t alone need not (the adversary injects stale
// gradients W does not account for).
func TestVProcessSupermartingale(t *testing.T) {
	const (
		d      = 2
		n      = 2
		eps    = 0.25
		budget = 6
		T      = 120
		trials = 250
	)
	q, err := grad.NewIsoQuadratic(d, 1, 0.4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cst := q.Constants()
	tauAssumed := budget + 2*n
	alpha := core.AlphaAsync(cst, eps, 1, tauAssumed, n, d)
	w, err := martingale.NewWitness(eps, alpha, cst)
	if err != nil {
		t.Fatal(err)
	}
	if !w.DriftOK(tauAssumed, n, d) {
		t.Fatalf("drift precondition fails: %v", w.DriftTerm(tauAssumed, n, d))
	}
	c := 2 * math.Sqrt(float64(tauAssumed)*float64(n))
	x0 := vec.Dense{1.2, 1.2}
	xstar := q.Optimum()

	var series [][]float64
	for k := 0; k < trials; k++ {
		res, err := core.RunEpoch(core.EpochConfig{
			Threads: n, TotalIters: T, Alpha: alpha, Oracle: q,
			Policy: &sched.MaxStale{Budget: budget},
			Seed:   uint64(9000 + k), X0: x0, Record: true, Track: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		distSq := res.DistSqSeries(xstar)
		norms := make([]float64, len(res.Records))
		for i, rec := range res.Records {
			norms[i] = rec.Grad.Norm2()
		}
		taus := res.Tracker.Taus()
		traj := martingale.VSeries(w, distSq, norms, taus, c, d)
		if len(traj) >= 2 {
			series = append(series, traj)
		}
	}
	if len(series) < trials/2 {
		t.Fatalf("only %d usable trajectories", len(series))
	}
	res := martingale.CheckSupermartingale(series, 0.5)
	if res.MeanDrift > 0.05 {
		t.Errorf("V process mean drift %v > 0; Theorem 6.5 construction violated", res.MeanDrift)
	}
	if res.Violations > res.Steps/4 {
		t.Errorf("V process violated at %d/%d steps", res.Violations, res.Steps)
	}
}
