// Package harness is the cross-runtime differential/metamorphic test
// infrastructure: it executes one (oracle, strategy, seed) triple on both
// of the codebase's runtimes — the simulated asynchronous shared-memory
// machine (internal/core over internal/shm) and the real-goroutine
// Hogwild runtime (internal/hogwild) — and checks the invariants that tie
// them together. The two runtimes implement the same Algorithm 1 (plus
// the same synchronization disciplines), so the codebase can refactor
// either side freely as long as the harness keeps passing:
//
//   - Seeded single-worker executions are fully deterministic and must
//     agree *bit for bit*: final model identical, and the shared
//     coordinate-access accounting (hogwild Result.CoordOps vs the
//     machine's EpochResult.CoordOps) exactly equal.
//   - Multi-worker executions are only statistically comparable: both
//     runtimes must reach the oracle's optimum within a stated tolerance.
//   - For gated disciplines, the measured staleness — admissions past the
//     gate while an iteration is in flight — must respect the configured
//     bound τ on both runtimes (hogwild.StalenessBounded on real threads,
//     contention.MaxAdmissions over the windows on the machine).
//   - Both runtimes record their iterations' windows, and the average
//     interval contention over them obeys the paper's τavg ≤ 2n (on the
//     machine, when every claimed iteration recorded its end).
//   - Invalid configurations must be rejected by both runtimes
//     (rejection parity), and interval contention must be monotone in the
//     worker count on the machine.
package harness

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// SimSpec maps a hogwild strategy onto the simulated machine: which
// EpochConfig pipeline/discipline fields reproduce the strategy's
// semantics. The zero value is plain dense Algorithm 1 (the machine
// counterpart of the lock-free and lock-based strategies, which coincide
// with it on a single worker and differ only in interleaving beyond).
type SimSpec struct {
	Sparse         bool
	StalenessBound int
	Batch          int
	FenceEvery     int
}

// Case is one differential scenario.
type Case struct {
	Name     string
	Strategy func() hogwild.Strategy     // fresh strategy value per run
	Sim      SimSpec                     // machine counterpart
	Oracle   func() (grad.Oracle, error) // fresh oracle per run
	X0Val    float64                     // constant initial model value
	Iters    int
	Alpha    float64
	Seed     uint64
	Tau      int     // >0: assert measured staleness ≤ Tau on both runtimes
	Tol      float64 // multi-worker suboptimality tolerance (dist² to optimum)
}

// Report carries the measured quantities of one differential run, for
// logging and for experiment tables.
type Report struct {
	SingleCoordOps int64   // exact, equal on both runtimes
	HogDist2       float64 // multi-worker final dist² (real threads)
	SimDist2       float64 // multi-worker final dist² (machine)
	HogStaleness   int     // observed staleness (gated strategies; -1 otherwise)
	SimStaleness   int     // measured admissions-during-flight (gated; -1 otherwise)
}

// ErrInvariant reports a violated cross-runtime invariant.
var ErrInvariant = errors.New("harness: cross-runtime invariant violated")

const (
	diffWorkers = 4 // real-thread worker count of the statistical leg
	simThreads  = 3 // machine thread count of the statistical leg
)

// RunDifferential executes the case on both runtimes and checks every
// applicable invariant. It returns a Report on success and ErrInvariant
// (wrapped with details) on the first violation.
func RunDifferential(c Case) (*Report, error) {
	rep := &Report{HogStaleness: -1, SimStaleness: -1}

	// --- deterministic leg: one worker, bit-exact agreement ---------------
	hog, sim, err := c.run(1, 1, func() shm.Policy { return &sched.RoundRobin{} })
	if err != nil {
		return nil, err
	}
	if sim.Stats.Stalled > 0 {
		return nil, fmt.Errorf("%w: %s: machine stalled at MaxSteps", ErrInvariant, c.Name)
	}
	if hog.res.Iters != c.Iters {
		return nil, fmt.Errorf("%w: %s: hogwild completed %d/%d iterations",
			ErrInvariant, c.Name, hog.res.Iters, c.Iters)
	}
	for j := range hog.res.Final {
		if hog.res.Final[j] != sim.FinalX[j] {
			return nil, fmt.Errorf("%w: %s: single-worker finals differ at coord %d: %v (threads) vs %v (machine)",
				ErrInvariant, c.Name, j, hog.res.Final[j], sim.FinalX[j])
		}
	}
	if hog.res.CoordOps != sim.CoordOps {
		return nil, fmt.Errorf("%w: %s: CoordOps %d (threads) vs %d (machine)",
			ErrInvariant, c.Name, hog.res.CoordOps, sim.CoordOps)
	}
	rep.SingleCoordOps = hog.res.CoordOps

	// --- statistical leg: multiple workers, tolerance + staleness --------
	simSeed := c.Seed + 0x9E3779B9
	hogM, simM, err := c.run(diffWorkers, simThreads, func() shm.Policy {
		return &sched.Random{R: rng.New(simSeed)}
	})
	if err != nil {
		return nil, err
	}
	if simM.Stats.Stalled > 0 {
		return nil, fmt.Errorf("%w: %s: multi-thread machine stalled", ErrInvariant, c.Name)
	}
	o, err := c.Oracle()
	if err != nil {
		return nil, err
	}
	opt := o.Optimum()
	if rep.HogDist2, err = vec.Dist2Sq(hogM.res.Final, opt); err != nil {
		return nil, err
	}
	if rep.SimDist2, err = vec.Dist2Sq(simM.FinalX, opt); err != nil {
		return nil, err
	}
	if c.Tol > 0 {
		if rep.HogDist2 > c.Tol {
			return nil, fmt.Errorf("%w: %s: real-thread dist² %v exceeds tolerance %v",
				ErrInvariant, c.Name, rep.HogDist2, c.Tol)
		}
		if rep.SimDist2 > c.Tol {
			return nil, fmt.Errorf("%w: %s: machine dist² %v exceeds tolerance %v",
				ErrInvariant, c.Name, rep.SimDist2, c.Tol)
		}
	}
	if sb, ok := hogM.strat.(hogwild.StalenessBounded); ok {
		rep.HogStaleness = sb.ObservedMaxStaleness()
	}
	// A machine iteration that applies no update of its own (a zero
	// direction, a batch-buffered gradient) records no end and so runs to
	// the end of the run: the machine's bound is checked where all ended.
	hogTauAvg, simTauAvg := hogM.res.AvgStaleness, contention.TauAvg(simM.Windows)
	open := func(w contention.Window) bool { return w.Start > 0 && w.End == 0 }
	simEnded := !slices.ContainsFunc(simM.Windows, open)
	if hogTauAvg > 2*diffWorkers || simEnded && simTauAvg > 2*simThreads {
		return nil, fmt.Errorf("%w: %s: τavg %v (threads, n=%d) or %v (machine, n=%d) exceeds 2n",
			ErrInvariant, c.Name, hogTauAvg, diffWorkers, simTauAvg, simThreads)
	}
	if c.Sim.StalenessBound > 0 || c.Sim.FenceEvery > 0 {
		rep.SimStaleness = contention.MaxAdmissions(simM.Windows)
	}
	if c.Tau > 0 {
		if rep.HogStaleness > c.Tau {
			return nil, fmt.Errorf("%w: %s: real-thread staleness %d exceeds τ=%d",
				ErrInvariant, c.Name, rep.HogStaleness, c.Tau)
		}
		if rep.SimStaleness > c.Tau {
			return nil, fmt.Errorf("%w: %s: machine staleness %d exceeds τ=%d",
				ErrInvariant, c.Name, rep.SimStaleness, c.Tau)
		}
	}
	return rep, nil
}

// hogRun pairs a run's result with the strategy value that executed it
// (for the staleness gauge).
type hogRun struct {
	res   *hogwild.Result
	strat hogwild.Strategy
}

// run executes the case once on each runtime with the given parallelism.
func (c Case) run(workers, threads int, mkPolicy func() shm.Policy) (*hogRun, *core.EpochResult, error) {
	oh, err := c.Oracle()
	if err != nil {
		return nil, nil, err
	}
	d := oh.Dim()
	var strat hogwild.Strategy
	if c.Strategy != nil {
		strat = c.Strategy()
	}
	hog, err := hogwild.Run(hogwild.Config{
		Workers: workers, TotalIters: c.Iters, Alpha: c.Alpha,
		Oracle: oh, Seed: c.Seed, Strategy: strat,
		X0: vec.Constant(d, c.X0Val), SampleStaleness: true,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("hogwild %s: %w", c.Name, err)
	}
	os, err := c.Oracle()
	if err != nil {
		return nil, nil, err
	}
	sim, err := core.RunEpoch(core.EpochConfig{
		Threads: threads, TotalIters: c.Iters, Alpha: c.Alpha,
		Oracle: os, Policy: mkPolicy(), Seed: c.Seed,
		X0:             vec.Constant(d, c.X0Val),
		Sparse:         c.Sim.Sparse,
		StalenessBound: c.Sim.StalenessBound,
		Batch:          c.Sim.Batch,
		FenceEvery:     c.Sim.FenceEvery,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("machine %s: %w", c.Name, err)
	}
	return &hogRun{res: hog, strat: strat}, sim, nil
}

// CheckRejectionParity asserts that both runtimes reject the case's
// configuration: capability mismatches (a sparse strategy over a
// dense-only oracle) and bad discipline parameters must fail identically
// on real threads and on the machine, not silently diverge.
func CheckRejectionParity(c Case) error {
	o, err := c.Oracle()
	if err != nil {
		return err
	}
	var strat hogwild.Strategy
	if c.Strategy != nil {
		strat = c.Strategy()
	}
	_, hogErr := hogwild.Run(hogwild.Config{
		Workers: 2, TotalIters: c.Iters, Alpha: c.Alpha, Oracle: o,
		Seed: c.Seed, Strategy: strat,
	})
	_, simErr := core.RunEpoch(core.EpochConfig{
		Threads: 2, TotalIters: c.Iters, Alpha: c.Alpha, Oracle: o,
		Policy: &sched.RoundRobin{}, Seed: c.Seed,
		Sparse:         c.Sim.Sparse,
		StalenessBound: c.Sim.StalenessBound,
		Batch:          c.Sim.Batch,
		FenceEvery:     c.Sim.FenceEvery,
	})
	if !errors.Is(hogErr, hogwild.ErrBadConfig) {
		return fmt.Errorf("%w: %s: real-thread runtime accepted an invalid config: %v",
			ErrInvariant, c.Name, hogErr)
	}
	if !errors.Is(simErr, core.ErrBadConfig) {
		return fmt.Errorf("%w: %s: machine accepted an invalid config: %v",
			ErrInvariant, c.Name, simErr)
	}
	return nil
}

// CheckContentionMonotone asserts the metamorphic contention invariant on
// the machine: under the fair round-robin schedule, adding workers can
// only increase the maximum interval contention τmax (more iterations
// overlap any given one). The run is fully deterministic, so this is an
// exact, non-statistical check.
func CheckContentionMonotone(mk func() (grad.Oracle, error), iters int, alpha float64,
	seed uint64, threadCounts []int) error {
	prev := -1
	prevN := 0
	for _, n := range threadCounts {
		o, err := mk()
		if err != nil {
			return err
		}
		res, err := core.RunEpoch(core.EpochConfig{
			Threads: n, TotalIters: iters, Alpha: alpha, Oracle: o,
			Policy: &sched.RoundRobin{}, Seed: seed,
		})
		if err != nil {
			return err
		}
		cur := contention.TauMax(res.Windows)
		if prev >= 0 && cur < prev {
			return fmt.Errorf("%w: τmax dropped from %d (n=%d) to %d (n=%d)",
				ErrInvariant, prev, prevN, cur, n)
		}
		prev, prevN = cur, n
	}
	return nil
}

// SuboptimalityGap returns f(x) − f(x*), a scale-free convergence
// measure used by experiment tables built on top of the harness.
func SuboptimalityGap(o grad.Oracle, x vec.Dense) float64 {
	return math.Max(0, o.Value(x)-o.Value(o.Optimum()))
}
