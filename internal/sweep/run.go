package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

// Run expands the spec and executes every cell on a bounded weighted
// pool, returning results in cell-index order (deterministic regardless
// of how the pool interleaved execution).
//
// The pool is GOMAXPROCS-aware: its capacity is the number of schedulable
// CPUs (or Spec.MaxConcurrent), and each cell occupies as many slots as
// the goroutines it runs — one for a simulator cell, Workers for a
// real-thread hogwild cell (capped at the capacity). Simulator cells and
// single-worker hogwild cells therefore pack the machine, while a
// hogwild cell whose worker count fills the capacity runs alone — its
// throughput and staleness measurements are not polluted by sibling
// cells competing for cores. Admission is FIFO in cell order, so a wide
// cell blocks later cells rather than starving forever.
//
// Runs that leave MaxConcurrent at 0 share one process-wide pool and are
// admitted FIFO across runs: a run admits all its cells before the next
// run admits any, so concurrent runs never oversubscribe the CPUs. A run
// with MaxConcurrent > 0 has a private pool. A cell must therefore never
// start a sweep run on the shared pool: it would wait for the admission
// its own run holds.
func Run(s Spec) ([]CellResult, error) {
	return RunContext(context.Background(), s)
}

// ErrCanceled is the Err recorded on cells the dispatcher never started
// because the run's context was canceled first.
const ErrCanceled = "sweep: canceled before execution"

// RunContext is Run with job-scoped cancellation: when ctx is canceled
// the dispatcher stops admitting cells, cells already executing run to
// completion (the runtimes are not interruptible mid-iteration, so
// cancellation latency is bounded by the longest in-flight cell), and
// every never-started cell records ErrCanceled in its result. The
// returned slice always has one entry per grid cell in cell-index order;
// the error is ctx.Err() when the run was cut short, nil otherwise.
func RunContext(ctx context.Context, s Spec) ([]CellResult, error) {
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	return runCells(ctx, s, cells)
}

// RunSubset expands the spec's grid and executes only the cells with the
// given grid indices, returning their results in the order the indices
// were given (each result's Cell.Index keeps its grid-global value). It
// is the cell-batch extraction primitive of the cluster protocol: a
// worker leases a batch of indices, runs exactly those cells through the
// same pipeline RunContext uses, and the coordinator reassembles the
// document by index — per-cell seeds are split from the cell's
// coordinates, never from execution order or grid position, so a subset
// run reproduces bit-identical deterministic fields no matter which
// process runs it, how the grid was partitioned, or how often a cell is
// re-executed after a lost lease.
func RunSubset(ctx context.Context, s Spec, indices []int) ([]CellResult, error) {
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	sub := make([]Cell, len(indices))
	seen := make(map[int]bool, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= len(cells) {
			return nil, fmt.Errorf("%w: cell index %d out of range [0,%d)", ErrBadSpec, idx, len(cells))
		}
		if seen[idx] {
			return nil, fmt.Errorf("%w: duplicate cell index %d", ErrBadSpec, idx)
		}
		seen[idx] = true
		sub[i] = cells[idx]
	}
	return runCells(ctx, s, sub)
}

// runCells executes the given (already expanded) cells on the bounded
// weighted pool. The returned slice is parallel to cells — for a full
// grid that is cell-index order, for a leased subset it is the batch
// order — and each result retains its grid-global Cell.Index.
func runCells(ctx context.Context, s Spec, cells []Cell) ([]CellResult, error) {
	p := poolFor(s.MaxConcurrent)
	results := make([]CellResult, len(cells))
	var (
		wg     sync.WaitGroup
		emitMu sync.Mutex
	)
	// Serialize telemetry emission with result emission: concurrent cells
	// sample concurrently, but the consumer sees one interleaved stream.
	if s.OnTelemetry != nil {
		inner := s.OnTelemetry
		s.OnTelemetry = func(ts TelemetrySample) {
			emitMu.Lock()
			inner(ts)
			emitMu.Unlock()
		}
	}
	entered := p.enter(ctx)
	canceledFrom := len(cells)
	for i, c := range cells {
		if !entered || ctx.Err() != nil {
			canceledFrom = i
			break
		}
		w := cellWeight(c, p.gate.cap)
		//asgdvet:allow ticketpair(ownership transfers: the cell goroutine defer-releases, or the cancel branch below releases inline)
		p.gate.acquire(w) // FIFO: blocks the dispatcher until w slots free up
		if ctx.Err() != nil {
			// Canceled while waiting for slots: do not start this cell.
			p.gate.release(w)
			canceledFrom = i
			break
		}
		wg.Add(1)
		go func(pos int, c Cell, w int) {
			defer wg.Done()
			defer p.gate.release(w)
			res := runCellSafe(&s, c)
			results[pos] = res
			if s.OnResult != nil {
				emitMu.Lock()
				s.OnResult(res)
				emitMu.Unlock()
			}
		}(i, c, w)
	}
	if entered {
		p.leave()
	}
	wg.Wait()
	if canceledFrom < len(cells) {
		for pos := canceledFrom; pos < len(cells); pos++ {
			res := CellResult{Cell: cells[pos], MaxStaleness: -1, Err: ErrCanceled}
			results[pos] = res
			if s.OnResult != nil {
				s.OnResult(res)
			}
		}
		return results, ctx.Err()
	}
	return results, nil
}

// pool is where a run's cells execute: a weighted gate, and for the
// shared pool the admission token a run holds while it admits its cells.
type pool struct {
	gate  *weightedGate
	admit chan struct{} // nil for a private pool
}

// The process-wide pool of the runs that leave MaxConcurrent at 0: one
// gate per GOMAXPROCS value (it only changes in tests) and one admission
// token, a 1-slot channel whose blocked senders are served in order.
var (
	sharedMu    sync.Mutex
	sharedGates = make(map[int]*weightedGate)
	admission   = make(chan struct{}, 1)
)

// poolFor returns a private pool of the given capacity, or the shared
// GOMAXPROCS-wide pool when maxConcurrent is 0.
func poolFor(maxConcurrent int) pool {
	if maxConcurrent > 0 {
		return pool{gate: newWeightedGate(maxConcurrent)}
	}
	procs := runtime.GOMAXPROCS(0)
	sharedMu.Lock()
	defer sharedMu.Unlock()
	g := sharedGates[procs]
	if g == nil {
		g = newWeightedGate(procs)
		sharedGates[procs] = g
	}
	return pool{gate: g, admit: admission}
}

// enter takes the admission token, waiting for the runs ahead of this
// one to admit their last cell. It reports false, holding nothing, when
// ctx ends first.
func (p pool) enter(ctx context.Context) bool {
	if p.admit == nil {
		return true
	}
	select {
	case p.admit <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// leave hands the admission token to the next run.
func (p pool) leave() {
	if p.admit != nil {
		<-p.admit
	}
}

// cellWeight is the number of pool slots a cell occupies. Simulator
// cells are sequential; hogwild cells run one goroutine per worker,
// scaled by the dimension class — a large-dimension cell is memory-bound
// across the whole socket, not just on its own cores, so co-scheduling
// it with a dozen small cells would let the siblings pollute the very
// cache/bandwidth behavior the cell is measuring. Weighting by
// Workers × dimClass makes a d = 10⁶ cell fill the pool and run alone.
func cellWeight(c Cell, capacity int) int {
	w := 1
	if c.runtime == Hogwild {
		w = c.Workers * dimClass(c.Dim)
	}
	if w > capacity {
		w = capacity
	}
	return w
}

// cacheDim is the model dimension at which a hogwild cell stops fitting
// a core's private cache: 2¹⁶ coordinates are 512 KiB compact, and the
// same model padded to a line per coordinate (4 MiB) already overflows a
// typical per-core L2.
const cacheDim = 1 << 16

// dimClass buckets a cell's model dimension into a pool-slot multiplier:
// 1 below cacheDim (the model fits in-cache; cells share fine), 2 up to a
// quarter-million coordinates (last-level-cache sized), 4 beyond
// (DRAM-bandwidth bound — the cell wants the machine). Dim 0 means
// "oracle picks its own (small) size" and stays class 1.
func dimClass(d int) int {
	switch {
	case d >= 1<<18:
		return 4
	case d >= cacheDim:
		return 2
	default:
		return 1
	}
}

// weightedGate is a FIFO weighted-capacity semaphore.
type weightedGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
}

func newWeightedGate(capacity int) *weightedGate {
	g := &weightedGate{cap: capacity}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *weightedGate) acquire(w int) {
	g.mu.Lock()
	for g.used+w > g.cap {
		g.cond.Wait()
	}
	g.used += w
	g.mu.Unlock()
}

func (g *weightedGate) release(w int) {
	g.mu.Lock()
	g.used -= w
	g.cond.Broadcast()
	g.mu.Unlock()
}

// runCellSafe runs a cell and converts a panic — a dimension-mismatched
// X0, an oracle announcing an out-of-range support index — into that
// cell's Err, keeping the failure cell-local like every other error.
func runCellSafe(s *Spec, c Cell) (res CellResult) {
	defer func() {
		if r := recover(); r != nil {
			res = CellResult{Cell: c, MaxStaleness: -1,
				Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	return runCell(s, c)
}

// runCell executes one cell on its runtime. Failures are recorded in the
// result rather than aborting the sweep: one bad grid point (say, a
// sparse strategy crossed with a dense-only oracle) should not cost the
// other 99 cells their work.
func runCell(s *Spec, c Cell) CellResult {
	res := CellResult{Cell: c, MaxStaleness: -1}
	oracle, x0, err := c.oracle.Make(c.Dim, rng.NewStream(c.Seed, oracleStream))
	if err != nil {
		res.Err = fmt.Sprintf("oracle %s: %v", c.Oracle, err)
		return res
	}
	// Robustness-axis oracle wrapping: the Byzantine corruption wraps the
	// honest oracle and the clip defense wraps the corruption, so the
	// defender sees what the adversary emitted, not the clean gradient.
	var (
		corrMeter grad.CorruptionMeter
		clipMeter grad.ClipMeter
	)
	if !c.byz.none() {
		oracle, err = c.byz.wrap(oracle, c.Workers, rng.NewStream(c.Seed, byzStream).Uint64())
		if err != nil {
			res.Err = fmt.Sprintf("byzantine %s: %v", c.Byzantine, err)
			return res
		}
		corrMeter, _ = oracle.(grad.CorruptionMeter)
	}
	if c.defense != nil && c.defense.ClipLimit > 0 {
		oracle, err = grad.NewNormClip(oracle, c.defense.ClipLimit)
		if err != nil {
			res.Err = fmt.Sprintf("defense %s: %v", c.Defense, err)
			return res
		}
		clipMeter, _ = oracle.(grad.ClipMeter)
	}
	run := runMachine // Spec.Cells admits exactly the two runtimes
	if c.runtime == Hogwild {
		run = runHogwild
	}
	final, elapsed, err := run(s, c, oracle, x0, &res)
	// The meters are shared across every worker clone, so the wrapper
	// handles read run totals.
	if corrMeter != nil {
		res.CorruptedUpdates = corrMeter.CorruptedUpdates()
	}
	if clipMeter != nil {
		res.ClippedUpdates = clipMeter.ClippedUpdates()
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.fill(oracle, final, elapsed)
	return res
}

// hogwildConfig builds the hogwild.Config a real-thread cell runs with.
func hogwildConfig(s *Spec, c Cell, oracle grad.Oracle, x0 vec.Dense) (hogwild.Config, error) {
	if c.strategy.Hogwild == nil {
		return hogwild.Config{}, fmt.Errorf("strategy %s has no real-thread implementation", c.Strategy)
	}
	var strat hogwild.Strategy
	if c.defense != nil && c.defense.Median {
		strat = hogwild.NewMedianAggregate()
	} else {
		strat = c.strategy.Hogwild()
	}
	cfg := hogwild.Config{
		Workers:         c.Workers,
		TotalIters:      s.Iters,
		Alpha:           c.Alpha,
		Oracle:          oracle,
		Seed:            c.Seed,
		Strategy:        strat,
		Padded:          c.strategy.Padded,
		X0:              x0,
		SampleStaleness: s.Probe,
	}
	if !c.faults.none() {
		cfg.Faults = c.faults.hogwildPlan(c.Workers, rng.NewStream(c.Seed, faultStream))
	}
	// Robustness cells trade throughput for scheduling fairness: on
	// hosts with fewer cores than workers, one worker could otherwise
	// swallow the whole iteration budget before the planned victims or
	// the Byzantine roster ever run.
	cfg.FairYield = !c.faults.none() || !c.byz.none() ||
		(c.defense != nil && !c.defense.none())
	if s.OnTelemetry != nil {
		emit := s.OnTelemetry
		cfg.TelemetryEvery = s.TelemetryEvery
		cfg.OnTelemetry = func(t hogwild.Telemetry) {
			emit(TelemetrySample{
				Cell:         c,
				Seconds:      t.Elapsed.Seconds(),
				Iters:        t.Iters,
				CoordOps:     t.CoordOps,
				MaxStaleness: t.MaxStaleness,
				Done:         t.Done,
			})
		}
	}
	return cfg, nil
}

// runHogwild is the real-thread adapter: it runs the cell through
// hogwild.Run, writes the run's counters into res and returns the final
// model with the workers' run time, which leaves out the τ statistics
// hogwild.Run computes after its workers exit.
func runHogwild(s *Spec, c Cell, oracle grad.Oracle, x0 vec.Dense, res *CellResult) (vec.Dense, time.Duration, error) {
	cfg, err := hogwildConfig(s, c, oracle, x0)
	if err != nil {
		return nil, 0, err
	}
	out, err := hogwild.Run(cfg)
	if err != nil {
		return nil, 0, err
	}
	res.Iters = out.Iters
	res.CoordOps = out.CoordOps
	res.AvgStaleness = out.AvgStaleness
	if _, gauged := cfg.Strategy.(hogwild.StalenessBounded); gauged || s.Probe {
		res.MaxStaleness = out.MaxStaleness
	}
	res.Crashed = out.Crashed
	res.Rejoined = out.Rejoined
	res.RecoveredTickets = int64(out.RecoveredTickets)
	return out.Final, out.Elapsed, nil
}

// machineConfig builds the core.EpochConfig a simulator cell runs with.
func machineConfig(s *Spec, c Cell, oracle grad.Oracle, x0 vec.Dense) (core.EpochConfig, error) {
	if c.strategy.Machine == nil {
		return core.EpochConfig{}, fmt.Errorf("strategy %s has no machine implementation", c.Strategy)
	}
	if c.defense != nil && c.defense.Median {
		return core.EpochConfig{}, fmt.Errorf("defense %s has no machine implementation (a round-membership barrier has no meaning under one-op-at-a-time scheduling)", c.Defense)
	}
	cfg := core.EpochConfig{
		Threads:    c.Workers,
		TotalIters: s.Iters,
		Alpha:      c.Alpha,
		Oracle:     oracle,
		Seed:       c.Seed,
		X0:         x0,
	}
	if s.Policy != nil {
		cfg.Policy = s.Policy(c.Workers, rng.NewStream(c.Seed, policyStream))
	} else {
		cfg.Policy = &sched.RoundRobin{}
	}
	// An armed fault axis replaces the cell's scheduling policy with
	// the crash adversary and arms gate-ticket recovery; replacement
	// threads join as parked spares above the original worker ids.
	if !c.faults.none() {
		if faulty, spares := c.faults.machineFaulty(c.Workers, rng.NewStream(c.Seed, faultStream)); faulty != nil {
			cfg.Policy = faulty
			cfg.Threads = c.Workers + spares
			cfg.CrashRecovery = true
		}
	}
	c.strategy.Machine(&cfg)
	return cfg, nil
}

// runMachine is the simulator adapter: it runs the cell through
// core.RunEpoch, writes the run's counters into res and returns the
// final model with the adapter's wall-clock time. The cell runs
// untracked: the two statistics it reports come from the admission
// windows the workers record on every run.
func runMachine(s *Spec, c Cell, oracle grad.Oracle, x0 vec.Dense, res *CellResult) (vec.Dense, time.Duration, error) {
	//asgdvet:allow nondet(feeds elapsed/updates_per_sec, the two documented nondeterministic report fields)
	start := time.Now()
	cfg, err := machineConfig(s, c, oracle, x0)
	if err != nil {
		return nil, 0, err
	}
	out, err := core.RunEpoch(cfg)
	if err != nil {
		return nil, 0, err
	}
	for _, w := range out.Windows {
		if w.End > 0 {
			res.Iters++
		}
	}
	res.CoordOps = out.CoordOps
	res.MaxStaleness = contention.MaxAdmissions(out.Windows)
	res.Crashed = out.Stats.Crashed
	res.Stalled = out.Stats.Stalled
	res.RecoveredTickets = out.RecoveredTickets
	if c.faults != nil && c.faults.Rejoin {
		// Each fired crash activates one parked spare.
		res.Rejoined = out.Stats.Crashed
	}
	//asgdvet:allow nondet(feeds elapsed/updates_per_sec, the two documented nondeterministic report fields)
	return out.FinalX, time.Since(start), nil
}

// fill computes the quality metrics and timing of a finished cell.
func (r *CellResult) fill(oracle grad.Oracle, final vec.Dense, elapsed time.Duration) {
	opt := oracle.Optimum()
	if d2, err := vec.Dist2Sq(final, opt); err == nil {
		if math.IsNaN(d2) || math.IsInf(d2, 0) {
			r.Diverged = true
		} else {
			r.FinalDist2 = d2
		}
	}
	// The optimality gap is mathematically ≥ 0, but floating-point
	// evaluation near the optimum can produce a tiny negative value.
	// Clamp to zero and flag it rather than silently dropping the field:
	// a clamped gap means "converged to within float error", which is a
	// different statement from "gap not computed". A non-finite gap — a
	// diverged or NaN-poisoned model — is zeroed under the Diverged flag
	// instead: NaN/Inf would make the whole result document unencodable
	// (encoding/json rejects them), and a silent 0 would read as
	// convergence.
	gap := oracle.Value(final) - oracle.Value(opt)
	switch {
	case math.IsNaN(gap) || math.IsInf(gap, 0):
		r.Diverged = true
	case gap > 0:
		r.FinalLoss = gap
	default:
		r.GapClamped = true
	}
	r.Seconds = elapsed.Seconds()
	if r.Seconds > 0 {
		r.UpdatesPerSec = float64(r.Iters) / r.Seconds
	}
}
