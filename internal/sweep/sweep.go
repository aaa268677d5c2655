// Package sweep is the concurrent scenario-sweep engine: it turns the
// repo's one-(oracle, strategy, config)-at-a-time runtimes into a grid
// explorer. A Spec declares axes — runtime, oracle family, synchronization
// strategy/discipline (with its τ/b/E/stripe parameters), worker count,
// dimension, step size, and seed replicates — and the engine expands the
// cross product into cells, derives a deterministic per-cell seed from the
// cell's coordinates (independent of both execution order and grid shape),
// executes the cells on a bounded GOMAXPROCS-aware worker pool, and
// aggregates cross-replicate statistics with mathx Welford accumulators.
//
// The paper's claims are all parameterized — convergence degrades with the
// delay bound τ, thread count n, sparsity and step size α — so the phase
// diagram of Theorem 6.5 (loss over τ × n × sparsity) is the natural unit
// of experimentation; this package makes it one call (and `asgdbench
// sweep` one command) instead of a hand-rolled nest of loops per driver.
package sweep

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// SchemaV2 identifies the asgdbench/v2 JSON document: the v1 experiment
// records plus the optional per-cell sweep record this package produces.
const SchemaV2 = "asgdbench/v2"

// Runtime selects which of the two runtimes executes a cell.
type Runtime uint8

// Runtimes.
const (
	// Hogwild runs the cell on real goroutines (internal/hogwild).
	// Multi-worker cells are nondeterministic (true races); single-worker
	// cells are bit-reproducible.
	Hogwild Runtime = iota + 1
	// Machine runs the cell on the deterministic simulated shared-memory
	// machine (internal/core): every cell is bit-reproducible regardless
	// of how the pool interleaves cells.
	Machine
)

// String names the runtime.
func (rt Runtime) String() string {
	switch rt {
	case Hogwild:
		return "hogwild"
	case Machine:
		return "machine"
	default:
		return fmt.Sprintf("Runtime(%d)", uint8(rt))
	}
}

// Oracle is one entry of the oracle-family axis: a named factory that
// builds a fresh oracle (and optional initial model; nil ⇒ zeros) for one
// cell. The factory receives the cell's dimension axis value (0 when the
// spec has no Dims axis — the family picks its own size) and a generator
// derived from the cell seed, so replicated cells draw independent
// problem instances while reruns of the same spec+seed rebuild identical
// ones.
type Oracle struct {
	Name string
	Make func(d int, r *rng.Rand) (grad.Oracle, vec.Dense, error)
}

// Strategy is one entry of the strategy/discipline axis, mapped onto both
// runtimes: Hogwild constructs a fresh real-thread strategy per cell,
// Machine applies the discipline's knobs (Sparse, StalenessBound, Batch,
// FenceEvery) to the simulator config. A nil side means the strategy has
// no counterpart on that runtime and such cells fail with an error
// result. Tau records the enforced staleness bound for reporting (0 ⇒
// unbounded).
type Strategy struct {
	Name    string
	Hogwild func() hogwild.Strategy
	Machine func(cfg *core.EpochConfig)
	Tau     int
	// Padded gives this strategy's hogwild cells a model with one cache
	// line per coordinate — what lock-free throughput measurements want
	// on multi-core hosts. Irrelevant to Machine cells.
	Padded bool
}

// Built-in strategy-axis entries, mirroring the hogwild roster and its
// machine counterparts. This roster is the one pairing of each
// discipline with its two runtimes; the differential tests check it
// through the cell adapters' config builders.

// LockFree is plain dense Algorithm 1 on both runtimes.
func LockFree() Strategy {
	return Strategy{
		Name:    "lock-free",
		Hogwild: hogwild.NewLockFree,
		Machine: func(*core.EpochConfig) {},
	}
}

// CoarseLock is the consistent locking baseline; the machine counterpart
// is plain Algorithm 1 (they coincide in semantics, not interleavings).
func CoarseLock() Strategy {
	return Strategy{
		Name:    "coarse-lock",
		Hogwild: hogwild.NewCoarseLock,
		Machine: func(*core.EpochConfig) {},
	}
}

// BoundedStaleness is the τ-gated discipline on both runtimes. Sparse
// oracles run the sparse view-read path on both sides.
func BoundedStaleness(tau int) Strategy {
	return Strategy{
		Name:    fmt.Sprintf("bounded-staleness/tau=%d", tau),
		Hogwild: func() hogwild.Strategy { return hogwild.NewBoundedStaleness(tau) },
		Machine: func(cfg *core.EpochConfig) {
			cfg.StalenessBound = tau
			_, cfg.Sparse = grad.AsSparse(cfg.Oracle)
		},
		Tau: tau,
	}
}

// UpdateBatching buffers b gradients per worker before one scatter pass.
func UpdateBatching(b int) Strategy {
	return Strategy{
		Name:    fmt.Sprintf("update-batching/b=%d", b),
		Hogwild: func() hogwild.Strategy { return hogwild.NewUpdateBatching(b) },
		Machine: func(cfg *core.EpochConfig) {
			cfg.Batch = b
			_, cfg.Sparse = grad.AsSparse(cfg.Oracle)
		},
	}
}

// EpochFence fences the iteration stream into epochs of the given length
// (staleness ≤ every−1 by construction).
func EpochFence(every int) Strategy {
	return Strategy{
		Name:    fmt.Sprintf("epoch-fence/E=%d", every),
		Hogwild: func() hogwild.Strategy { return hogwild.NewEpochFence(every) },
		Machine: func(cfg *core.EpochConfig) {
			cfg.FenceEvery = every
			_, cfg.Sparse = grad.AsSparse(cfg.Oracle)
		},
		Tau: every - 1,
	}
}

// Spec declares a scenario grid. The expansion is the cross product of
// the axes in the fixed nesting order runtime → oracle → strategy →
// workers → dim → alpha → replicate (innermost), so cell indices are
// stable for a fixed spec. Missing optional axes default to a single
// neutral value.
type Spec struct {
	// Name labels the sweep in reports and JSON records.
	Name string
	// Seed is the spec-level seed every per-cell seed is split from.
	Seed uint64

	// Runtimes is the runtime axis (nil ⇒ {Hogwild}).
	Runtimes []Runtime
	// Oracles is the oracle-family axis (required).
	Oracles []Oracle
	// Strategies is the strategy/discipline axis (required).
	Strategies []Strategy
	// Workers is the parallelism axis: goroutines under Hogwild, simulated
	// threads under Machine (nil ⇒ {1}).
	Workers []int
	// Dims is the dimension axis passed to the oracle factories (nil ⇒
	// {0}: each family picks its own size).
	Dims []int
	// Alphas is the step-size axis (required).
	Alphas []float64
	// Faults is the crash/rejoin fault axis (nil ⇒ {none}); see Faults.
	Faults []Faults
	// Byzantine is the gradient-corruption axis (nil ⇒ {none}).
	Byzantine []Byzantine
	// Defenses is the robust-aggregation defense axis (nil ⇒ {none}).
	Defenses []Defense
	// Replicates is the number of seed replicates per grid point (0 ⇒ 1).
	Replicates int

	// Iters is the per-cell iteration budget (required).
	Iters int
	// Probe records the iteration windows of Hogwild cells
	// (hogwild.Config.SampleStaleness): AvgStaleness becomes their τavg,
	// and MaxStaleness their τmax for ungated strategies.
	Probe bool
	// Policy builds the scheduling adversary for Machine cells from the
	// cell's thread count and a cell-seeded generator (nil ⇒ round-robin).
	Policy func(threads int, r *rng.Rand) shm.Policy

	// MaxConcurrent caps the pool's weighted concurrency: 0 runs the
	// cells on the process-wide GOMAXPROCS pool, shared FIFO with every
	// other such run; > 0 gives the run a private pool of that capacity.
	MaxConcurrent int
	// OnResult, when non-nil, streams each cell's result as it completes
	// (execution order, serialized). The slice Run returns is always in
	// cell-index order regardless.
	OnResult func(CellResult)
	// OnTelemetry, when non-nil, streams periodic live snapshots of every
	// running Hogwild cell — the staleness gauge and the iteration /
	// coordinate-op progress counters — sampled every TelemetryEvery.
	// Calls are serialized with each other and with OnResult (the same
	// emission lock), so a consumer may interleave both streams without
	// its own locking. Machine cells emit no telemetry: the simulator is
	// single-threaded per cell and its meters only exist once the cell
	// returns. Telemetry never affects results; every sample field is
	// wall-clock-dependent (see TelemetrySample).
	OnTelemetry func(TelemetrySample)
	// TelemetryEvery is the per-cell sampling period for OnTelemetry
	// (0 ⇒ hogwild.DefaultTelemetryEvery).
	TelemetryEvery time.Duration
}

// TelemetrySample is one live snapshot of a running Hogwild cell: the
// cell's coordinates plus the runtime's meters at sampling time. Unlike
// CellResult, every measured field here is nondeterministic — samples
// depend on when the wall-clock ticker fired against the racing workers
// — so telemetry is an observability stream, never part of the
// deterministic document contract (reruns of the same spec produce
// identical results but incomparable telemetry).
type TelemetrySample struct {
	Cell
	// Seconds is the wall-clock time since the cell's workers launched.
	Seconds float64 `json:"seconds"`
	// Iters is the number of iterations completed so far (monotone across
	// one cell's samples).
	Iters int `json:"iters"`
	// CoordOps is the shared model-coordinate traffic so far (monotone).
	CoordOps int64 `json:"coord_ops"`
	// MaxStaleness is the gated strategies' exact staleness gauge at
	// sampling time, −1 for the others.
	MaxStaleness int `json:"max_staleness"`
	// Done marks the cell's final snapshot, taken after its workers
	// exited; its Iters and CoordOps equal the cell's CellResult.
	Done bool `json:"done,omitempty"`
}

// Cell is one fully resolved grid coordinate: the cross product entry
// plus its split seed.
type Cell struct {
	Index    int     `json:"cell"`
	Runtime  string  `json:"runtime"`
	Oracle   string  `json:"oracle"`
	Strategy string  `json:"strategy"`
	Tau      int     `json:"tau,omitempty"`
	Workers  int     `json:"workers"`
	Dim      int     `json:"dim,omitempty"`
	Alpha    float64 `json:"alpha"`
	// Faults, Byzantine and Defense are the robustness-axis labels; empty
	// means the neutral entry (fault-free, honest, undefended), so sweeps
	// that never touch the robustness axes serialize exactly as before.
	Faults    string `json:"faults,omitempty"`
	Byzantine string `json:"byzantine,omitempty"`
	Defense   string `json:"defense,omitempty"`
	Rep       int    `json:"rep"`
	Seed      uint64 `json:"seed"`

	runtime  Runtime
	oracle   *Oracle
	strategy *Strategy
	faults   *Faults
	byz      *Byzantine
	defense  *Defense
}

// CellResult is the outcome of one cell (the cell's coordinates are
// inlined). Every field except the timing pair (Seconds, UpdatesPerSec)
// is deterministic for Machine cells and single-worker Hogwild cells:
// rerunning the same spec+seed reproduces them bit for bit.
type CellResult struct {
	Cell
	// Iters is the number of completed SGD iterations.
	Iters int `json:"iters"`
	// CoordOps is the shared model-coordinate traffic (reads + writes).
	CoordOps int64 `json:"coord_ops"`
	// FinalLoss is the suboptimality gap f(x_final) − f(x*).
	FinalLoss float64 `json:"final_loss"`
	// FinalDist2 is ‖x_final − x*‖².
	FinalDist2 float64 `json:"final_dist2"`
	// GapClamped flags a cell whose measured optimality gap came out
	// non-positive — stochastic noise can leave the final iterate at a
	// sampled objective value at or below the optimum's — so FinalLoss
	// was clamped to 0. Without the flag, "converged to the optimum" and
	// "gap measurement degenerate" were indistinguishable zeros.
	GapClamped bool `json:"gap_clamped,omitempty"`
	// Diverged flags a cell whose final model produced a non-finite loss
	// or distance (NaN or ±Inf — a runaway step size, or an undefended
	// NaN/scale gradient attack). The non-finite values are zeroed so the
	// result stays JSON-serializable; Diverged is the record that they
	// were not real zeros.
	Diverged bool `json:"diverged,omitempty"`
	// MaxStaleness is the observed maximum staleness: the gated gauge or,
	// under Spec.Probe, τmax over the recorded windows (Hogwild), or the
	// max admissions during flight over the workers' recorded iteration
	// windows (Machine); −1 when the cell does not measure it.
	MaxStaleness int `json:"max_staleness"`
	// AvgStaleness is τavg over the recorded windows (Hogwild cells with
	// Spec.Probe; 0 otherwise).
	AvgStaleness float64 `json:"avg_staleness,omitempty"`
	// Crashed, Rejoined and RecoveredTickets are the fault-axis outcome:
	// workers the plan killed, replacements that joined, and orphaned gate
	// tickets tombstoned by the recovery protocol (hogwild supervisor or
	// machine survivors).
	Crashed          int   `json:"crashed,omitempty"`
	Rejoined         int   `json:"rejoined,omitempty"`
	RecoveredTickets int64 `json:"recovered_tickets,omitempty"`
	// Stalled counts machine threads still blocked when the simulator hit
	// its step bound — a non-zero value under a ticket-crash fault with
	// recovery disabled is the gate deadlock made visible.
	Stalled int `json:"stalled,omitempty"`
	// CorruptedUpdates and ClippedUpdates are the Byzantine/defense
	// meters: gradients the corruption roster poisoned, and gradients the
	// norm-clip defense modified.
	CorruptedUpdates int64 `json:"corrupted_updates,omitempty"`
	ClippedUpdates   int64 `json:"clipped_updates,omitempty"`
	// Seconds and UpdatesPerSec are wall-clock timing — the only fields
	// that legitimately differ between reruns.
	Seconds       float64 `json:"seconds"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// Err is the cell's failure, if any (other fields are zero).
	Err string `json:"err,omitempty"`
}

// ErrBadSpec reports an invalid sweep specification.
var ErrBadSpec = errors.New("sweep: invalid specification")

// Cells validates the spec and expands the grid in the documented nesting
// order. The expansion is purely combinatorial — no oracle is built, no
// cell is run.
func (s *Spec) Cells() ([]Cell, error) {
	if len(s.Oracles) == 0 || len(s.Strategies) == 0 || len(s.Alphas) == 0 {
		return nil, fmt.Errorf("%w: Oracles, Strategies and Alphas axes must be non-empty", ErrBadSpec)
	}
	if s.Iters <= 0 {
		return nil, fmt.Errorf("%w: Iters %d (want ≥ 1)", ErrBadSpec, s.Iters)
	}
	runtimes := s.Runtimes
	if len(runtimes) == 0 {
		runtimes = []Runtime{Hogwild}
	}
	workers := s.Workers
	if len(workers) == 0 {
		workers = []int{1}
	}
	dims := s.Dims
	if len(dims) == 0 {
		dims = []int{0}
	}
	reps := s.Replicates
	if reps <= 0 {
		reps = 1
	}
	for _, rt := range runtimes {
		if rt != Hogwild && rt != Machine {
			return nil, fmt.Errorf("%w: unknown runtime %v", ErrBadSpec, rt)
		}
	}
	for _, w := range workers {
		if w <= 0 {
			return nil, fmt.Errorf("%w: worker count %d (want ≥ 1)", ErrBadSpec, w)
		}
	}
	for i := range s.Oracles {
		if s.Oracles[i].Name == "" || s.Oracles[i].Make == nil {
			return nil, fmt.Errorf("%w: oracle axis entry %d needs Name and Make", ErrBadSpec, i)
		}
	}
	for i := range s.Strategies {
		if s.Strategies[i].Name == "" {
			return nil, fmt.Errorf("%w: strategy axis entry %d needs a Name", ErrBadSpec, i)
		}
	}
	faults := s.Faults
	if len(faults) == 0 {
		faults = []Faults{NoFaults()}
	}
	byzs := s.Byzantine
	if len(byzs) == 0 {
		byzs = []Byzantine{NoByzantine()}
	}
	defenses := s.Defenses
	if len(defenses) == 0 {
		defenses = []Defense{NoDefense()}
	}
	for i := range faults {
		if faults[i].Name == "" || (!faults[i].none() && faults[i].Crashes < 1) {
			return nil, fmt.Errorf("%w: fault axis entry %d needs a Name and, unless neutral, Crashes ≥ 1", ErrBadSpec, i)
		}
	}
	for i := range byzs {
		if byzs[i].Name == "" || (!byzs[i].none() && byzs[i].F < 1) {
			return nil, fmt.Errorf("%w: byzantine axis entry %d needs a Name and, unless neutral, F ≥ 1", ErrBadSpec, i)
		}
	}
	for i := range defenses {
		if defenses[i].Name == "" {
			return nil, fmt.Errorf("%w: defense axis entry %d needs a Name", ErrBadSpec, i)
		}
	}

	cells := make([]Cell, 0, len(runtimes)*len(s.Oracles)*len(s.Strategies)*len(workers)*len(dims)*len(s.Alphas)*len(faults)*len(byzs)*len(defenses)*reps)
	for _, rt := range runtimes {
		for oi := range s.Oracles {
			for si := range s.Strategies {
				for _, w := range workers {
					for _, d := range dims {
						for _, a := range s.Alphas {
							for fi := range faults {
								for bi := range byzs {
									for di := range defenses {
										for rep := 0; rep < reps; rep++ {
											c := Cell{
												Index:    len(cells),
												Runtime:  rt.String(),
												Oracle:   s.Oracles[oi].Name,
												Strategy: s.Strategies[si].Name,
												Tau:      s.Strategies[si].Tau,
												Workers:  w,
												Dim:      d,
												Alpha:    a,
												Rep:      rep,
												runtime:  rt,
												oracle:   &s.Oracles[oi],
												strategy: &s.Strategies[si],
												faults:   &faults[fi],
												byz:      &byzs[bi],
												defense:  &defenses[di],
											}
											if !c.faults.none() {
												c.Faults = c.faults.Name
											}
											if !c.byz.none() {
												c.Byzantine = c.byz.Name
											}
											if !c.defense.none() {
												c.Defense = c.defense.Name
											}
											c.Seed = cellSeed(s.Seed, c)
											cells = append(cells, c)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// cellSeed splits a cell's seed from the spec seed by folding the cell's
// coordinates — the axis *values*, not their positions — through
// SplitMix64. Two properties follow: the seed is independent of the order
// cells execute in, and extending an axis (adding a τ value, another
// worker count) does not reseed the cells that were already in the grid.
func cellSeed(specSeed uint64, c Cell) uint64 {
	h := specSeed
	h = fold(h, uint64(c.runtime))
	h = fold(h, hashString(c.Oracle))
	h = fold(h, hashString(c.Strategy))
	h = fold(h, uint64(c.Workers))
	h = fold(h, uint64(c.Dim))
	h = fold(h, math.Float64bits(c.Alpha))
	// The robustness axes fold in only when non-neutral, so arming them
	// never reseeds the fault-free/honest cells a spec already had (the
	// same extend-an-axis stability the other axes get from folding
	// values, not positions).
	if c.Faults != "" {
		h = fold(h, hashString("faults:"+c.Faults))
	}
	if c.Byzantine != "" {
		h = fold(h, hashString("byzantine:"+c.Byzantine))
	}
	if c.Defense != "" {
		h = fold(h, hashString("defense:"+c.Defense))
	}
	h = fold(h, uint64(c.Rep))
	return h
}

// fold mixes v into h with full avalanche.
func fold(h, v uint64) uint64 {
	h ^= v
	return rng.SplitMix64(&h)
}

// hashString hashes an axis label (FNV-1a).
func hashString(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	return f.Sum64()
}

// Per-cell derived rng streams. Worker streams occupy 1..n on both
// runtimes (hogwild.Run and core.RunEpoch use NewStream(seed, w+1)), so
// auxiliary consumers sit far away.
const (
	oracleStream = uint64(1) << 32 // problem-instance construction
	policyStream = uint64(1) << 33 // machine scheduling adversary
	faultStream  = uint64(1) << 34 // fault-plan victim selection
	byzStream    = uint64(1) << 35 // byzantine roster selection
)
