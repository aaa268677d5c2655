package core

import (
	"errors"
	"fmt"
	"sort"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// EpochConfig parameterizes one EpochSGD run (Algorithm 1 executed by
// Threads workers against a shared iteration budget).
type EpochConfig struct {
	Threads    int
	TotalIters int     // T: shared iteration budget (counter bound)
	Alpha      float64 // learning rate
	Oracle     grad.Oracle
	Policy     shm.Policy
	Seed       uint64
	X0         vec.Dense // initial model; nil ⇒ zero vector
	MaxSteps   int       // safety cap; 0 ⇒ derived from T, d, Threads
	Record     bool      // collect per-iteration views/gradients
	Track      bool      // workers also record read/update times; see EpochResult.Tracker
	Accumulate bool      // workers also accumulate gradients locally (Alg. 2 last epoch)

	// Sparse switches workers to the sparse update pipeline: each
	// iteration reads only the support announced by the oracle's
	// PlanSparse and fetch&adds only the gradient's non-zeros, so an
	// iteration costs O(|support|+nnz) shared-memory steps instead of
	// O(d). Requires an Oracle with the grad.SparseOracle capability;
	// incompatible with Momentum (a decaying dense velocity touches every
	// coordinate).
	Sparse bool

	// StalenessBound τ ≥ 1 runs the bounded-staleness discipline: a new
	// iteration may take its view only once every iteration claimed more
	// than τ slots earlier has completed and published on the shared done
	// counter, so no view misses more than τ predecessors — the machine
	// counterpart of hogwild.NewBoundedStaleness, actively capping the τ
	// that parameterizes Theorem 6.5 and that the Section-5 adversary
	// inflates. 0 disables.
	StalenessBound int
	// Batch b ≥ 1 runs the update-batching discipline: each worker
	// buffers b gradients locally and applies them in one scatter
	// fetch&add pass (plus a terminal flush of the final partial batch) —
	// the machine counterpart of hogwild.NewUpdateBatching. 0 disables.
	Batch int
	// FenceEvery E ≥ 1 runs the epoch-fence discipline: iteration c may
	// start only once all iterations of claim epochs before ⌊c/E⌋ have
	// completed, so every view is a consistent snapshot across epoch
	// boundaries — the machine counterpart of hogwild.NewEpochFence.
	// 0 disables.
	FenceEvery int

	// CrashRecovery arms the gated disciplines' crash-safe ticket
	// reclamation. Without it, a thread the adversary crashes between
	// claiming an iteration and publishing it on the done counter pins the
	// counter forever: every survivor spins at the gate until MaxSteps, a
	// deadlock that no schedule can end, since the dead thread's ticket is
	// never published. With it, each gated
	// worker announces its claim in a per-thread register right after the
	// claiming fetch&add, the machine raises a crash flag the moment a
	// thread dies (shm.Config.CrashFlagBase), and blocked survivors
	// interleave one probe per spin cycle: on finding a crashed peer whose
	// announced claim is exactly the stuck done value, they tombstone the
	// orphaned ticket with a CAS on the done counter (exactly-once — the
	// counter is monotone and only one CAS from c to c+1 can win). The
	// tombstoned iteration's updates are lost (its owner died mid-flight);
	// the ≤ τ admission bound for survivors is preserved.
	//
	// One window stays unrecoverable by construction: a crash after the
	// claiming fetch&add executes but before the announce write does. The
	// sched.Faulty adversary never crashes there — it kills threads only
	// while their pending operation is a counter claim (not yet executed),
	// a gate read, or a model update. Ignored unless a gated discipline
	// (StalenessBound/FenceEvery) is active.
	CrashRecovery bool

	// Momentum enables the §8 alternative mitigation: each worker keeps a
	// local heavy-ball velocity v ← β·v + g̃ and applies −α·v.
	Momentum float64
	// StalenessEta enables staleness-aware step scaling (Zhang et al.
	// style): before updating, the worker re-reads the counter (one extra
	// shared-memory step) and uses α/(1+η·staleness).
	StalenessEta float64
}

// EpochResult is the outcome of one EpochSGD run.
type EpochResult struct {
	Alpha  float64
	X0     vec.Dense
	FinalX vec.Dense // model registers at the end of the run
	Stats  shm.RunStats
	// CoordOps is the total number of shared model-coordinate accesses
	// (view reads plus update fetch&adds) the run performed — the
	// simulator-side counterpart of hogwild.Result.CoordOps. Synchronization
	// traffic (counter claims, probes, gate/publish operations on the done
	// counter) is excluded.
	CoordOps int64
	// Windows holds one admission window per claimable iteration, indexed
	// by the claimed counter value (length TotalIters; a never-claimed
	// iteration keeps the zero Window). The workers record it on every
	// run, tracked or not: the claim, first view read and last update
	// times. The windows with End > 0 count the completed iterations, and
	// contention.MaxAdmissions computes the admissions during flight —
	// sorting the slice in place, which leaves Tracker as it was.
	Windows []contention.Window
	// Tracker holds the run's contention statistics (nil unless Track).
	// On Track runs the workers also record, per claimed iteration, its
	// thread and local iteration, its first model update and the time of
	// every view read and model update, into storage sized up front from
	// TotalIters and the model dimension; the tracker is built from that
	// record and Windows once the machine stops. A caller that needs only
	// completions and admissions reads Windows and runs untracked.
	Tracker *contention.Tracker
	// RecoveredTickets counts orphaned gate tickets survivors tombstoned
	// on the done counter (CrashRecovery runs only). Each one is a claim
	// whose owner the adversary crashed mid-flight and whose completion a
	// survivor published on its behalf, unsticking the gate.
	RecoveredTickets int64
	// Records holds completed iterations sorted by first model update —
	// the paper's total order. Empty unless Record.
	Records []IterRecord
	// steps is the machine's step log, kept only by runEpoch's traced
	// runs (the package's own schedule tests).
	steps []shm.Step
	// LocalSum is Σ over workers of their local accumulated updates
	// (−α·g̃ summed over every generated gradient), the r of Algorithm 2's
	// last epoch. Nil unless Accumulate.
	LocalSum vec.Dense
}

// Validation errors.
var (
	ErrBadConfig = errors.New("core: invalid configuration")
)

// RunEpoch executes Algorithm 1: Threads lock-free SGD workers sharing a
// model and an iteration counter, scheduled by cfg.Policy.
func RunEpoch(cfg EpochConfig) (*EpochResult, error) { return runEpoch(cfg, false) }

// runEpoch is RunEpoch; trace also keeps the machine's step log in the
// result's steps.
func runEpoch(cfg EpochConfig, trace bool) (*EpochResult, error) {
	if cfg.Threads <= 0 || cfg.TotalIters <= 0 || cfg.Alpha <= 0 ||
		cfg.Oracle == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	if cfg.Sparse {
		if _, ok := grad.AsSparse(cfg.Oracle); !ok {
			return nil, fmt.Errorf("%w: Sparse requires a grad.SparseOracle (got %T)",
				ErrBadConfig, cfg.Oracle)
		}
		if cfg.Momentum > 0 {
			return nil, fmt.Errorf("%w: Sparse is incompatible with Momentum", ErrBadConfig)
		}
	}
	if cfg.StalenessBound < 0 || cfg.Batch < 0 || cfg.FenceEvery < 0 {
		return nil, fmt.Errorf("%w: negative discipline parameter in %+v", ErrBadConfig, cfg)
	}
	disciplines := 0
	for _, v := range []int{cfg.StalenessBound, cfg.Batch, cfg.FenceEvery} {
		if v > 0 {
			disciplines++
		}
	}
	if disciplines > 1 {
		return nil, fmt.Errorf("%w: StalenessBound, Batch and FenceEvery are mutually exclusive",
			ErrBadConfig)
	}
	if disciplines > 0 && (cfg.Momentum > 0 || cfg.StalenessEta > 0) {
		return nil, fmt.Errorf("%w: disciplines are incompatible with Momentum/StalenessEta",
			ErrBadConfig)
	}
	d := cfg.Oracle.Dim()
	x0 := cfg.X0
	if x0 == nil {
		x0 = vec.NewDense(d)
	}
	if x0.Dim() != d {
		return nil, fmt.Errorf("%w: X0 dim %d vs oracle dim %d",
			ErrBadConfig, x0.Dim(), d)
	}

	var rec *recorder
	if cfg.Record {
		rec = &recorder{records: make([]IterRecord, 0, cfg.TotalIters)}
	}
	gated := cfg.StalenessBound > 0 || cfg.FenceEvery > 0
	recov := cfg.CrashRecovery && gated
	doneAddr := ModelBase + d
	opts := workerOpts{
		momentum:       cfg.Momentum,
		stalenessEta:   cfg.StalenessEta,
		stalenessBound: cfg.StalenessBound,
		batch:          cfg.Batch,
		fenceEvery:     cfg.FenceEvery,
		doneAddr:       doneAddr,
	}
	if recov {
		opts.recover = true
		opts.threads = cfg.Threads
		opts.announceBase = doneAddr + 1
		opts.crashBase = doneAddr + 1 + cfg.Threads
	}
	wins := make([]contention.Window, cfg.TotalIters)
	var trk *trackRecord
	if cfg.Track {
		trk = newTrackRecord(cfg.TotalIters, d, cfg.Sparse)
	}
	progs := make([]shm.Program, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		progs[i] = newWorker(
			i, cfg.Alpha, cfg.TotalIters,
			cfg.Oracle.CloneFor(i), cfg.Sparse,
			rng.NewStream(cfg.Seed, uint64(i)+1),
			rec, wins, trk, cfg.Accumulate,
			opts,
		)
	}

	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		// Each iteration costs ≤ 1 + 2d steps (+1 probe); claiming threads
		// beyond the budget cost one counter step each. Generous 2x slack.
		maxSteps = 2 * (cfg.TotalIters + cfg.Threads + 1) * (3 + 2*d)
		if gated {
			// Gate and publish operations add ≥ 3 steps per iteration, and
			// a blocked thread burns one spin step each time it is
			// scheduled — under a fair policy up to one per step of the
			// threads it waits for.
			maxSteps *= 2 + cfg.Threads
		}
		if recov {
			// Each blocked spin cycle interleaves up to three probe steps
			// (crash flag, announce, tombstone CAS) with the gate read.
			maxSteps *= 2
		}
	}

	memSize := 1 + d
	if gated {
		memSize++ // the shared done counter at ModelBase+d
	}
	if recov {
		// Per-thread announce registers, then per-thread crash flags.
		memSize += 2 * cfg.Threads
	}
	initMem := make([]float64, memSize)
	copy(initMem[ModelBase:], x0)

	m, err := shm.New(shm.Config{
		MemSize:       memSize,
		MaxSteps:      maxSteps,
		Trace:         trace,
		InitMem:       initMem,
		CrashFlagBase: opts.crashBase, // 0 unless recovery is armed
	}, cfg.Policy, progs...)
	if err != nil {
		return nil, fmt.Errorf("build machine: %w", err)
	}
	stats, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("run machine: %w", err)
	}
	var tracker *contention.Tracker
	if trk != nil {
		tracker = contention.NewTracker(d, wins, trk.its)
	}

	var coordOps, recovered int64
	for _, p := range progs {
		if w, ok := p.(*worker); ok {
			coordOps += w.coordOps
			recovered += w.recovered
		}
	}

	res := &EpochResult{
		Alpha:            cfg.Alpha,
		X0:               x0.Clone(),
		FinalX:           vec.FromSlice(m.Mem()[ModelBase : ModelBase+d]),
		Stats:            stats,
		CoordOps:         coordOps,
		Windows:          wins,
		Tracker:          tracker,
		RecoveredTickets: recovered,
		steps:            m.Trace(),
	}
	if rec != nil {
		res.Records = rec.records
		sort.SliceStable(res.Records, func(a, b int) bool {
			return res.Records[a].FirstUp < res.Records[b].FirstUp
		})
	}
	if cfg.Accumulate {
		sum := x0.Clone()
		for _, p := range progs {
			w, ok := p.(*worker)
			if !ok {
				continue
			}
			if err := sum.Add(w.acc); err != nil {
				return nil, err
			}
		}
		res.LocalSum = sum
	}
	return res, nil
}

// Accumulators reconstructs the paper's auxiliary sequence x_0, x_1, …:
// x_t = x_{t−1} − α_t·u_t over iterations in the total order (α_t is the
// iteration's effective step and u_t its applied direction; both equal the
// plain α·g̃ unless the §8 extensions are enabled). This is the sequence
// whose entry into the success region the failure probability bounds
// (Theorems 3.1/6.3/6.5) are about.
func (r *EpochResult) Accumulators() []vec.Dense {
	out := make([]vec.Dense, 0, len(r.Records)+1)
	cur := r.X0.Clone()
	out = append(out, cur.Clone())
	for _, rec := range r.Records {
		_ = cur.AddScaled(-rec.AlphaEff, rec.Grad)
		out = append(out, cur.Clone())
	}
	return out
}

// HitTime returns the first index t (0-based over x_0..x_T) at which
// ‖x_t − xstar‖² ≤ eps, or −1 if the run never enters the success region.
// Requires Record.
func (r *EpochResult) HitTime(xstar vec.Dense, eps float64) int {
	cur := r.X0.Clone()
	d2, err := vec.Dist2Sq(cur, xstar)
	if err != nil {
		return -1
	}
	if d2 <= eps {
		return 0
	}
	for t, rec := range r.Records {
		_ = cur.AddScaled(-rec.AlphaEff, rec.Grad)
		d2, err = vec.Dist2Sq(cur, xstar)
		if err != nil {
			return -1
		}
		if d2 <= eps {
			return t + 1
		}
	}
	return -1
}

// DistSqSeries returns ‖x_t − xstar‖² for t = 0..T over the total order.
func (r *EpochResult) DistSqSeries(xstar vec.Dense) []float64 {
	out := make([]float64, 0, len(r.Records)+1)
	cur := r.X0.Clone()
	d2, _ := vec.Dist2Sq(cur, xstar)
	out = append(out, d2)
	for _, rec := range r.Records {
		_ = cur.AddScaled(-rec.AlphaEff, rec.Grad)
		d2, _ = vec.Dist2Sq(cur, xstar)
		out = append(out, d2)
	}
	return out
}
