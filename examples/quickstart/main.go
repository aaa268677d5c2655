// Quickstart: minimize a strongly convex quadratic with lock-free
// concurrent SGD on the simulated asynchronous shared-memory machine,
// using the paper's Corollary-6.7 learning rate, and compare against the
// sequential baseline and the theoretical failure-probability bound.
package main

import (
	"fmt"
	"os"

	"asyncsgd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		d       = 8    // model dimension
		threads = 4    // concurrent SGD threads
		eps     = 0.25 // success region: ‖x − x*‖² ≤ ε
		T       = 4000 // iteration budget
	)

	// A c-strongly-convex objective with Gaussian gradient noise and
	// known analytic constants (c, L, M²).
	oracle, err := asyncsgd.NewIsoQuadratic(d, 1, 0.5, 3, nil)
	if err != nil {
		return err
	}
	cst := oracle.Constants()

	// The paper's step size for lock-free SGD against an adversary with
	// interval contention at most τmax (Corollary 6.7).
	tauMax := 16
	alpha := asyncsgd.AlphaAsync(cst, eps, 1, tauMax, threads, d)
	fmt.Printf("constants: c=%.3g L=%.3g M²=%.3g  →  α = %.5f\n",
		cst.C, cst.L, cst.M2, alpha)

	// Run Algorithm 1 under the budgeted max-staleness adversary.
	x0 := asyncsgd.NewDense(d)
	for j := range x0 {
		x0[j] = 0.5
	}
	res, err := asyncsgd.RunEpoch(asyncsgd.EpochConfig{
		Threads:    threads,
		TotalIters: T,
		Alpha:      alpha,
		Oracle:     oracle,
		Policy:     &asyncsgd.MaxStale{Budget: 8},
		Seed:       1,
		X0:         x0,
		Record:     true,
		Track:      true,
	})
	if err != nil {
		return err
	}

	xstar := oracle.Optimum()
	hit := res.HitTime(xstar, eps)
	fmt.Printf("lock-free (adversarial): hit success region at iteration %d\n", hit)
	fmt.Printf("  measured τmax = %d, τavg = %.2f, max view staleness = %d\n",
		asyncsgd.TauMax(res.Windows), asyncsgd.TauAvg(res.Windows), res.Tracker.TauMaxView())

	// Sequential baseline with the Theorem-3.1 step size.
	seq, err := asyncsgd.RunSequential(asyncsgd.SeqConfig{
		Oracle: oracle, X0: x0,
		Alpha: asyncsgd.AlphaSequential(cst, eps, 1),
		Iters: T, Seed: 2, TrackDist: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("sequential baseline:     hit success region at iteration %d\n",
		seq.HitTime(eps))

	// The theoretical bound on the probability neither run would have
	// succeeded by T.
	var x0DistSq float64
	for j := range x0 {
		dlt := x0[j] - xstar[j]
		x0DistSq += dlt * dlt
	}
	fmt.Printf("Corollary 6.7 bound on P(no success by T=%d): %.4f\n",
		T, asyncsgd.BoundAsync(cst, eps, 1, tauMax, threads, d, T, x0DistSq))
	return nil
}
