// Package hogwild is the real-thread counterpart of internal/core: the
// same lock-free Algorithm 1 executed by actual goroutines over an atomic
// float vector (CAS-emulated fetch&add), plus the coarse-lock baseline the
// paper contrasts it with (Langford et al.'s consistent locking), a
// sparse-aware lock-free path that does O(nnz) shared-memory operations
// per iteration, and the three gated disciplines of disciplines.go:
// bounded-staleness, update batching and epoch fencing.
//
// The synchronization discipline is a pluggable Strategy (see strategy.go).
// The discrete simulator (internal/core) is the vehicle for the paper's
// worst-case claims — a real scheduler cannot be made adversarial — while
// this package demonstrates the §8 practical story: throughput and
// convergence under OS scheduling. On a single-core host the numbers show
// shape only; EXPERIMENTS.md records that caveat.
package hogwild

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// Config parameterizes a run.
type Config struct {
	Workers    int
	TotalIters int
	Alpha      float64
	Oracle     grad.Oracle
	Seed       uint64
	// Strategy is the synchronization discipline (nil ⇒ NewLockFree(),
	// Algorithm 1). The value is Bind-ed by Run and must not be shared by
	// concurrent runs — Run enforces this and fails fast with
	// ErrStrategyBusy when a concurrent run already holds the value
	// (sequential reuse is fine).
	Strategy Strategy
	// Faults injects a deterministic crash/rejoin plan at the stepper
	// boundary: each planned victim dies after completing its configured
	// number of iterations (optionally holding an unpublished gate
	// ticket), and optionally a replacement worker joins after a delay.
	// Crash points are functions of per-worker progress, so the set of
	// crashes — though not the interleaving around them — is reproducible
	// per seed. A victim whose planned iteration never arrives (the run
	// completes first) dies at its exit point instead: a planned crash
	// always fires, making Result.Crashed/Rejoined/RecoveredTickets
	// deterministic functions of the plan. An empty plan runs fault-free.
	// Fault runs imply FairYield.
	Faults FaultPlan
	// FairYield makes every worker yield the processor after each
	// iteration. Hogwild throughput runs never want this, but robustness
	// experiments do: on hosts with fewer cores than workers the Go
	// scheduler can let one worker claim the whole iteration budget
	// before its peers ever run, which starves planned crash points and
	// Byzantine workers of their share. The yield costs throughput, never
	// changes convergence semantics, and is implied by Faults.
	FairYield bool
	// Padded gives every model coordinate its own aligned cache line
	// (atomicfloat.Padded, 8x the memory): no false sharing between
	// coordinates, the choice for a small write-hot model. The default is
	// the compact cache-line-aligned layout (atomicfloat.Banked).
	Padded bool
	X0     vec.Dense // nil ⇒ zeros
	// SampleStaleness records every claimed iteration's window in
	// claim-counter time — Start the claim, End the counter read at
	// publish — and reports the interval contention over them as
	// Result.MaxStaleness (τmax) and Result.AvgStaleness (τavg).
	SampleStaleness bool
	// OnTelemetry, when non-nil, receives periodic snapshots of the
	// running meters — completed iterations, shared coordinate ops, the
	// staleness gauge — every TelemetryEvery, plus one final snapshot
	// (Done=true) after the workers exit. It is called from a single
	// sampler goroutine, never concurrently with itself, and must not
	// block for long: the workers keep running while it executes, but the
	// sampling cadence slips behind a slow callback. Enabling telemetry
	// adds one uncontended atomic store per iteration per worker and
	// never changes results.
	OnTelemetry func(Telemetry)
	// TelemetryEvery is the sampling period for OnTelemetry
	// (0 ⇒ DefaultTelemetryEvery).
	TelemetryEvery time.Duration
}

// DefaultTelemetryEvery is the sampling period used when Config.OnTelemetry
// is set without an explicit Config.TelemetryEvery.
const DefaultTelemetryEvery = 50 * time.Millisecond

// Telemetry is one point-in-time snapshot of a running Run, delivered
// through Config.OnTelemetry. Iters and CoordOps are monotone across the
// samples of one run; MaxStaleness is the exact StalenessBounded gauge
// for gated strategies, −1 for the others (the windows of SampleStaleness
// are read only once the workers exit).
// Every field is wall-clock-dependent: two runs of the same seed produce
// identical Results but never identical telemetry streams.
type Telemetry struct {
	// Elapsed is the wall-clock time since the workers launched.
	Elapsed time.Duration
	// Iters is the number of iterations that have completed their updates.
	Iters int
	// CoordOps is the shared model-coordinate traffic so far.
	CoordOps int64
	// MaxStaleness is the staleness gauge at sampling time (−1 when
	// unmeasured).
	MaxStaleness int
	// Done marks the final snapshot, taken after every worker has exited
	// (its Iters and CoordOps match the run's Result exactly).
	Done bool
}

// progressSlot is one stepper's ops counter, cache-line padded so
// concurrent per-iteration stores by different workers never false-share.
type progressSlot struct {
	ops atomic.Int64
	_   [56]byte
}

// Result is the outcome of a run.
type Result struct {
	Final vec.Dense
	// Iters is the number of iterations that actually completed their
	// updates (not the counter's final value: workers over-claim by one
	// each when racing for the last iterations).
	Iters         int
	Strategy      string // name of the strategy that executed the run
	Elapsed       time.Duration
	UpdatesPerSec float64
	// CoordOps is the total number of shared model-coordinate accesses
	// (view reads plus update writes) across all iterations — O(T·d) on
	// the dense paths, O(T·nnz) on the sparse path.
	CoordOps int64
	// MaxStaleness is the largest observed iteration staleness. For
	// strategies that enforce a bound (StalenessBounded) it is the
	// strategy's exact gauge, whether or not SampleStaleness is on;
	// otherwise it is τmax over the SampleStaleness windows.
	MaxStaleness int
	AvgStaleness float64 // τavg over the SampleStaleness windows
	// Windows holds claim c's SampleStaleness window at index c (nil with
	// it off): Start = FirstRead = c+1, End the counter at publish, ≤ T.
	Windows []contention.Window
	// Crashed / Rejoined count the fault plan's executed crashes and
	// replacement workers; RecoveredTickets counts orphaned gate tickets
	// the supervisor tombstoned on behalf of in-flight victims. All zero
	// on fault-free runs.
	Crashed          int
	Rejoined         int
	RecoveredTickets int
}

// ErrBadConfig reports invalid parameters.
var ErrBadConfig = errors.New("hogwild: invalid configuration")

// ErrStrategyBusy reports a Config.Strategy value that is currently bound
// by another run: strategies carry run-wide gate state, so concurrent
// sharing silently corrupts both runs. Sequential reuse (Bind
// re-initializes) is allowed.
var ErrStrategyBusy = errors.New("hogwild: Strategy is already bound by a concurrent Run")

// activeStrategies tracks Strategy values currently inside a Run, keyed
// by the strategy value itself (all built-in strategies are pointers, so
// identity is well-defined).
var activeStrategies sync.Map

// Run executes the configured parallel SGD to completion and reports
// timing, work and staleness statistics.
func Run(cfg Config) (*Result, error) {
	if cfg.Workers <= 0 || cfg.TotalIters <= 0 || cfg.Alpha <= 0 || cfg.Oracle == nil {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	d := cfg.Oracle.Dim()
	x0 := cfg.X0
	if x0 == nil {
		x0 = vec.NewDense(d)
	}
	if x0.Dim() != d {
		return nil, fmt.Errorf("%w: X0 dim %d vs oracle %d", ErrBadConfig, x0.Dim(), d)
	}

	strat := cfg.Strategy
	if strat == nil {
		strat = NewLockFree()
	}

	plan := cfg.Faults
	if len(plan) > 0 {
		if err := plan.validate(cfg.Workers); err != nil {
			return nil, err
		}
	}

	// A Strategy owns run-wide gate state; two concurrent runs sharing one
	// value would silently corrupt each other. Claim it for the run.
	if _, loaded := activeStrategies.LoadOrStore(strat, true); loaded {
		return nil, fmt.Errorf("%w: %s", ErrStrategyBusy, strat.Name())
	}
	defer activeStrategies.Delete(strat)

	layout := atomicfloat.Banked
	if cfg.Padded {
		layout = atomicfloat.Padded
	}
	model := atomicfloat.New(d, layout)
	model.StoreAll(x0)
	if err := strat.Bind(model, cfg.Alpha); err != nil {
		return nil, err
	}

	// Build every stepper before launching so a capability mismatch
	// (e.g. sparse strategy over a dense-only oracle) fails fast.
	// Replacement workers' steppers are built here too: the gated
	// disciplines' slot registration is not thread-safe, so everything
	// registers before any worker starts.
	steppers := make([]Stepper, cfg.Workers+plan.rejoins())
	for w := range steppers {
		st, err := strat.NewStepper(w, cfg.Oracle.CloneFor(w), rng.NewStream(cfg.Seed, uint64(w)+1))
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
		steppers[w] = st
	}
	var (
		counter atomic.Int64 // iteration claims (over-claims by one per finishing worker)
		done    atomic.Int64 // iterations that completed their updates
	)
	total := int64(cfg.TotalIters)
	// wins[c] is claim c's window, written once by its claimer and read
	// after the workers exit.
	var wins []contention.Window
	if cfg.SampleStaleness {
		wins = make([]contention.Window, total)
	}

	// Every stepper, original or replacement, stores its cumulative ops
	// into its own padded slot when it exits. With telemetry on it also
	// stores them every iteration, so the sampler reads live totals
	// without contending with the hot path.
	progress := make([]progressSlot, len(steppers))
	live := cfg.OnTelemetry != nil
	sumProgress := func() int64 {
		var s int64
		for i := range progress {
			s += progress[i].ops.Load()
		}
		return s
	}

	yield := cfg.FairYield || len(plan) > 0

	// runWorker is the body of stepper w, original or replacement. It
	// returns true when the worker died by its planned fault. Exits of
	// every kind retire the worker from round-membership strategies
	// (Member), so a barrier-shaped discipline never waits on the gone.
	runWorker := func(w int, fault *WorkerFault) (crashed bool) {
		st, slot := steppers[w], &progress[w].ops
		m, member := st.(Member)
		if member {
			m.Join()
		}
		var ops int64
		steps := 0
		defer func() {
			slot.Store(ops)
			if member {
				m.Leave()
			}
		}()
		// die executes the planned crash: InFlight victims first acquire a
		// gate ticket and keep it — the state a mid-flight crash leaves a
		// window-gated discipline in. A crashed worker never flushes
		// buffered updates: they die with it.
		die := func() bool {
			if fault.InFlight {
				if a, ok := st.(TicketHolder); ok {
					a.AbandonTicket()
				}
			}
			return true
		}
		for {
			if fault != nil && steps >= fault.AfterIters {
				// The planned death, before the next claim — a crashed
				// worker never leaves a claimed-but-uncompleted global
				// iteration behind.
				return die()
			}
			claimed := counter.Add(1) - 1
			if claimed >= total {
				if fault != nil {
					// The run completed before the victim's planned
					// iteration arrived; the plan still owes the crash, so
					// the victim dies at its exit point instead — survivor
					// counts are a function of the plan, not of how the
					// scheduler happened to share the iteration budget.
					return die()
				}
				// Disciplines that buffer updates locally flush their
				// final partial batch before the worker leaves.
				if f, ok := st.(Flusher); ok {
					ops += int64(f.Flush())
				}
				return false
			}
			ops += int64(st.Step())
			steps++
			done.Add(1)
			if live {
				slot.Store(ops)
			}
			if cfg.SampleStaleness {
				// Claims past the budget are workers exiting, not SGD
				// iterations, so the window ends at the budget at most.
				s := int(claimed) + 1
				wins[claimed] = contention.Window{Start: s, FirstRead: s, End: int(min(counter.Load(), total))}
			}
			if yield {
				runtime.Gosched()
			}
		}
	}

	type workerExit struct {
		w       int
		crashed bool
	}
	// launch runs stepper w and sends its one exit message: every worker,
	// original or replacement, exits through the supervisor below. The
	// buffer holds one message per stepper, so no exit blocks.
	exits := make(chan workerExit, len(steppers))
	launch := func(w int, fault *WorkerFault) {
		exits <- workerExit{w, runWorker(w, fault)}
	}
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		go launch(w, plan.faultFor(w))
	}

	// The sampler owns every OnTelemetry call: periodic snapshots while
	// the workers run, one final Done snapshot after they exit — so the
	// callback is never invoked concurrently with itself.
	sample := func(final bool) Telemetry {
		tel := Telemetry{
			Elapsed:      time.Since(start),
			Iters:        int(done.Load()),
			CoordOps:     sumProgress(),
			MaxStaleness: -1,
			Done:         final,
		}
		if sb, ok := strat.(StalenessBounded); ok {
			tel.MaxStaleness = sb.ObservedMaxStaleness()
		}
		return tel
	}
	var samplerDone chan struct{}
	stopSampler := make(chan struct{})
	if cfg.OnTelemetry != nil {
		every := cfg.TelemetryEvery
		if every <= 0 {
			every = DefaultTelemetryEvery
		}
		samplerDone = make(chan struct{})
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					cfg.OnTelemetry(sample(false))
				}
			}
		}()
	}

	// The supervisor: one exit message per worker, original or
	// replacement. Only a fault plan's victims exit crashed. Crashed
	// in-flight victims get their orphaned tickets reclaimed here (never
	// from the dead goroutine), which is what unblocks any peer spinning
	// at the gate — including a second victim still inside its own
	// AbandonTicket.
	var crashedN, rejoinedN, recoveredN int
	remaining := cfg.Workers
	next := cfg.Workers // index of the next unused replacement stepper
	for remaining > 0 {
		ex := <-exits
		remaining--
		if !ex.crashed {
			continue
		}
		crashedN++
		fault := plan.faultFor(ex.w)
		if fault.InFlight {
			if rec, ok := steppers[ex.w].(TicketHolder); ok {
				rec.ReclaimTicket()
				recoveredN++
			}
		}
		if fault.Rejoin && next < len(steppers) {
			target := min(done.Load()+int64(fault.RejoinAfter), total)
			remaining++
			rejoinedN++
			go func(w int, target int64) {
				// The rejoin delay: wait until the survivors have pushed
				// global progress past the target. At least one fault-free
				// worker exists (plan validation), so the target ≤ total
				// is always reached.
				for done.Load() < target {
					runtime.Gosched()
				}
				launch(w, nil)
			}(next, target)
			next++
		}
	}
	elapsed := time.Since(start)
	if samplerDone != nil {
		close(stopSampler)
		<-samplerDone
		cfg.OnTelemetry(sample(true))
	}

	final := vec.NewDense(d)
	model.LoadAll(final)
	res := &Result{
		Final:            final,
		Iters:            int(done.Load()),
		Strategy:         strat.Name(),
		Elapsed:          elapsed,
		CoordOps:         sumProgress(),
		Crashed:          crashedN,
		Rejoined:         rejoinedN,
		RecoveredTickets: recoveredN,
		Windows:          wins,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.UpdatesPerSec = float64(res.Iters) / secs
	}
	// Gated strategies hold the exact staleness gauge; prefer it over the
	// windows' τmax (and report it even with SampleStaleness off).
	sb, gauged := strat.(StalenessBounded)
	if gauged {
		res.MaxStaleness = sb.ObservedMaxStaleness()
	}
	if wins != nil {
		// One pass over the interval contentions gives τavg and τmax
		// (contention.TauAvg and TauMax would build them twice).
		rho := contention.IntervalContentions(wins)
		sum, top := 0, 0
		for _, r := range rho {
			sum += r
			top = max(top, r)
		}
		if len(rho) > 0 {
			res.AvgStaleness = float64(sum) / float64(len(rho))
		}
		if !gauged {
			res.MaxStaleness = top
		}
	}
	return res, nil
}
