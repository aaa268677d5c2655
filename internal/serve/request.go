// Package serve turns the concurrent scenario-sweep engine into a
// long-running service: sweep specifications arrive as JSON over HTTP,
// execute on the internal/sweep weighted pool, and stream per-cell
// results back as NDJSON or SSE, ending with the same asgdbench/v2
// aggregate document `asgdbench sweep -json` prints — byte-identical
// modulo the two timing fields, because both front ends run the request
// through this package's RunRequest.
//
// The package splits into three layers:
//
//   - SweepRequest (this file): the JSON job specification, its defaults
//     (exactly the asgdbench sweep flag defaults), validation, expansion
//     into sweep.Specs, and the deterministic cache key derived from the
//     expanded cells' seed-split coordinates.
//   - RunRequest (document.go): request → asgdbench/v2 Report, shared
//     verbatim with cmd/asgdbench.
//   - Server (serve.go): the bounded job queue, the in-memory LRU result
//     cache, the streaming endpoints and graceful drain.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// Default axis values of a SweepRequest: the `asgdbench sweep` flag
// defaults, so an empty request ({}) is the CLI's default 108-cell
// machine grid.
var (
	DefaultTaus     = []int{1, 2, 4, 8}
	DefaultWorkers  = []int{1, 2, 4}
	DefaultSparsity = []float64{0.15, 0.3, 0.6}
)

// Remaining request defaults.
const (
	DefaultDim        = 32
	DefaultReplicates = 3
	DefaultIters      = 400
	DefaultSeed       = 1701
	DefaultAdversary  = 24
	DefaultRuntime    = "machine"
)

// SweepRequest is the JSON body of POST /v1/sweeps and the one
// description of the staleness phase-diagram grid (Specs builds it), one
// field per `asgdbench sweep` flag. Zero/absent fields take the CLI defaults
// (Seed and Adversary are pointers because 0 is a meaningful value for
// both: seed 0 is a valid spec seed, adversary 0 selects the round-robin
// scheduler).
type SweepRequest struct {
	// Taus is the bounded-staleness gate axis (default 1,2,4,8).
	Taus []int `json:"taus,omitempty"`
	// Workers is the goroutine/thread-count axis (default 1,2,4).
	Workers []int `json:"workers,omitempty"`
	// Sparsity is the oracle row-density axis (default 0.15,0.3,0.6).
	Sparsity []float64 `json:"sparsity,omitempty"`
	// Dim is the model dimension (default 32).
	Dim int `json:"dim,omitempty"`
	// Replicates is the number of seed replicates per grid point
	// (default 3).
	Replicates int `json:"replicates,omitempty"`
	// Iters is the per-cell iteration budget (default 400).
	Iters int `json:"iters,omitempty"`
	// Seed is the spec seed per-cell seeds are split from (default 1701).
	Seed *uint64 `json:"seed,omitempty"`
	// Adversary is the machine runtime's MaxStale budget; 0 selects the
	// round-robin scheduler (default 24).
	Adversary *int `json:"adversary,omitempty"`
	// Runtime is "machine", "hogwild" or "both" (default "machine").
	// Only machine sweeps are deterministic and therefore cacheable.
	Runtime string `json:"runtime,omitempty"`
	// Faults is the crash/rejoin fault axis: sweep.ParseFaults labels
	// ("none", "crash/1", "ticket/1/rejoin", …; default ["none"]).
	Faults []string `json:"faults,omitempty"`
	// Byzantine is the gradient-corruption axis: sweep.ParseByzantine
	// labels ("none", "signflip/1", "scale/2", "nan/1"; default ["none"]).
	Byzantine []string `json:"byzantine,omitempty"`
	// Defenses is the defense axis: sweep.ParseDefense labels ("none",
	// "clip/5", "median"; default ["none"]). "median" replaces the cell
	// strategy with the hogwild coordinate-median aggregator and is only
	// accepted when Runtime is "hogwild".
	Defenses []string `json:"defenses,omitempty"`
	// TelemetryMS opts the job into live "telemetry" events on its event
	// stream: every running hogwild cell is sampled at this period (in
	// milliseconds) and the snapshots interleave with "cell" events. 0
	// disables telemetry. Machine cells never emit telemetry (the
	// simulator has no live gauges), so a machine-only request with
	// TelemetryMS set streams exactly as if it were 0 — which is also why
	// the field is excluded from the cache key: only machine sweeps are
	// cacheable, and for them telemetry changes nothing.
	TelemetryMS int `json:"telemetry_ms,omitempty"`
}

// ErrBadRequest reports an invalid sweep request.
var ErrBadRequest = fmt.Errorf("serve: invalid sweep request")

// Normalized returns a copy with every absent field replaced by its
// default, or an error when an explicit field is invalid. Two requests
// with equal normalized forms describe the same grid.
func (q SweepRequest) Normalized() (SweepRequest, error) {
	if len(q.Taus) == 0 {
		q.Taus = DefaultTaus
	}
	if len(q.Workers) == 0 {
		q.Workers = DefaultWorkers
	}
	if len(q.Sparsity) == 0 {
		q.Sparsity = DefaultSparsity
	}
	if q.Dim == 0 {
		q.Dim = DefaultDim
	}
	if q.Replicates == 0 {
		q.Replicates = DefaultReplicates
	}
	if q.Iters == 0 {
		q.Iters = DefaultIters
	}
	if q.Seed == nil {
		seed := uint64(DefaultSeed)
		q.Seed = &seed
	}
	if q.Adversary == nil {
		adv := DefaultAdversary
		q.Adversary = &adv
	}
	if q.Runtime == "" {
		q.Runtime = DefaultRuntime
	}

	for _, tau := range q.Taus {
		if tau < 1 {
			return q, fmt.Errorf("%w: tau %d (want ≥ 1)", ErrBadRequest, tau)
		}
	}
	for _, w := range q.Workers {
		if w < 1 {
			return q, fmt.Errorf("%w: workers %d (want ≥ 1)", ErrBadRequest, w)
		}
	}
	for _, keep := range q.Sparsity {
		if keep <= 0 || keep > 1 {
			return q, fmt.Errorf("%w: sparsity %g (want in (0,1])", ErrBadRequest, keep)
		}
	}
	if q.Dim < 1 {
		return q, fmt.Errorf("%w: dim %d (want ≥ 1)", ErrBadRequest, q.Dim)
	}
	if q.Replicates < 1 {
		return q, fmt.Errorf("%w: replicates %d (want ≥ 1)", ErrBadRequest, q.Replicates)
	}
	if q.Iters < 1 {
		return q, fmt.Errorf("%w: iters %d (want ≥ 1)", ErrBadRequest, q.Iters)
	}
	if *q.Adversary < 0 {
		return q, fmt.Errorf("%w: adversary %d (want ≥ 0)", ErrBadRequest, *q.Adversary)
	}
	switch q.Runtime {
	case "machine", "hogwild", "both":
	default:
		return q, fmt.Errorf("%w: runtime %q (want machine, hogwild or both)", ErrBadRequest, q.Runtime)
	}
	if q.TelemetryMS < 0 {
		return q, fmt.Errorf("%w: telemetry_ms %d (want ≥ 0)", ErrBadRequest, q.TelemetryMS)
	}
	if len(q.Faults) == 0 {
		q.Faults = []string{"none"}
	}
	if len(q.Byzantine) == 0 {
		q.Byzantine = []string{"none"}
	}
	if len(q.Defenses) == 0 {
		q.Defenses = []string{"none"}
	}
	_, _, defenses, err := q.axes()
	if err != nil {
		return q, err
	}
	for _, d := range defenses {
		// Coordinate-median aggregation is a round-membership barrier; it
		// has no machine implementation, so a request whose machine leg
		// would fail every median cell is rejected up front.
		if d.Median && q.Runtime != "hogwild" {
			return q, fmt.Errorf("%w: defense %q requires runtime \"hogwild\" (got %q)", ErrBadRequest, d.Name, q.Runtime)
		}
	}
	return q, nil
}

// axes parses the robustness-axis labels; it is the one place Faults,
// Byzantine and Defenses are read.
func (q SweepRequest) axes() (faults []sweep.Faults, byz []sweep.Byzantine, defenses []sweep.Defense, err error) {
	for _, label := range q.Faults {
		f, err := sweep.ParseFaults(label)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		faults = append(faults, f)
	}
	for _, label := range q.Byzantine {
		b, err := sweep.ParseByzantine(label)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		byz = append(byz, b)
	}
	for _, label := range q.Defenses {
		d, err := sweep.ParseDefense(label)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		defenses = append(defenses, d)
	}
	return faults, byz, defenses, nil
}

// runtimes expands the Runtime field in the CLI's fixed order
// (machine before hogwild under "both"). The request must be normalized.
func (q SweepRequest) runtimes() []sweep.Runtime {
	switch q.Runtime {
	case "machine":
		return []sweep.Runtime{sweep.Machine}
	case "hogwild":
		return []sweep.Runtime{sweep.Hogwild}
	default: // "both"
		return []sweep.Runtime{sweep.Machine, sweep.Hogwild}
	}
}

// phaseOracle is one sparsity-axis entry: least squares over synthetic
// linear data thinned to the given row density. Each cell draws its own
// problem instance from its split seed.
func phaseOracle(keep float64) sweep.Oracle {
	return sweep.Oracle{
		Name: fmt.Sprintf("sparse-ls/keep=%g", keep),
		Make: func(d int, r *rng.Rand) (grad.Oracle, vec.Dense, error) {
			sls, err := phaseInstance(d, keep, r)
			if err != nil {
				return nil, nil, err
			}
			return sls, vec.Constant(d, 0.5), nil
		},
	}
}

// phaseInstance draws phaseOracle(keep)'s instance at dimension d from r.
// The dense rows are released once the oracle holds its CSR copy, so the
// next instance reuses their slab.
func phaseInstance(d int, keep float64, r *rng.Rand) (*grad.SparseLeastSquares, error) {
	ds, err := data.GenLinear(data.LinearConfig{
		Samples: 6 * d, Dim: d, NoiseStd: 0.05,
	}, r)
	if err != nil {
		return nil, err
	}
	defer ds.Release()
	if err := data.SparsifyRows(ds, keep, r); err != nil {
		return nil, err
	}
	return grad.NewSparseLeastSquares(ds, 4)
}

// probeMemoSize bounds the probe memo: a request uses one entry per
// sparsity value (the default grid three), so 64 entries hold the
// probes of a few dozen requests.
const probeMemoSize = 64

// probeMemo holds the curvature L of recent probe oracles. L is a pure
// function of (dim, seed, keep), so a hit returns the bits a fresh probe
// would: serve's submit, its executor and every cluster worker in the
// process expand the same request, and only the first pays the probe.
// Entries are evicted in insertion order.
var probeMemo = struct {
	sync.Mutex
	l    map[probeKey]float64
	ring [probeMemoSize]probeKey
	next int
}{l: make(map[probeKey]float64, probeMemoSize)}

type probeKey struct {
	dim  int
	seed uint64
	keep float64
}

// probeL returns the curvature L of phaseOracle(keep)'s probe instance
// at (dim, seed).
func probeL(dim int, seed uint64, keep float64) (float64, error) {
	k := probeKey{dim, seed, keep}
	probeMemo.Lock()
	l, ok := probeMemo.l[k]
	probeMemo.Unlock()
	if ok {
		return l, nil
	}
	probe, err := phaseInstance(dim, keep, rng.New(seed))
	if err != nil {
		return 0, fmt.Errorf("probe %s: %w", phaseOracle(keep).Name, err)
	}
	l = probe.Lipschitz()
	probeMemo.Lock()
	defer probeMemo.Unlock()
	if _, ok := probeMemo.l[k]; !ok {
		if len(probeMemo.l) == probeMemoSize {
			delete(probeMemo.l, probeMemo.ring[probeMemo.next])
		}
		probeMemo.l[k] = l
		probeMemo.ring[probeMemo.next] = k
		probeMemo.next = (probeMemo.next + 1) % probeMemoSize
	}
	return l, nil
}

// Specs expands a request into one phase-diagram sweep spec per runtime
// leg (named staleness-phase-diagram/<runtime>), exactly as the
// `asgdbench sweep` subcommand does. The step size is derived once per
// request from probe instances of the sparsity axis (SparsifyRows
// rescales surviving entries by 1/keep, so the smallest keep dominates
// the curvature L): α = 0.3/L_max, stable across the whole grid at a
// safety margin over per-replicate L variation, and shared by both legs
// under runtime "both". The probes' L is memoized per process (probeL),
// so only a request's first expansion builds them.
func (q SweepRequest) Specs() ([]sweep.Spec, error) {
	q, err := q.Normalized()
	if err != nil {
		return nil, err
	}
	faults, byz, defenses, err := q.axes()
	if err != nil {
		return nil, err
	}
	oracles := make([]sweep.Oracle, 0, len(q.Sparsity))
	var lmax float64
	for i, keep := range q.Sparsity {
		l, err := probeL(q.Dim, *q.Seed+uint64(i)*0x9E3779B9, keep)
		if err != nil {
			return nil, err
		}
		if l > lmax {
			lmax = l
		}
		oracles = append(oracles, phaseOracle(keep))
	}
	strategies := make([]sweep.Strategy, 0, len(q.Taus))
	for _, tau := range q.Taus {
		strategies = append(strategies, sweep.BoundedStaleness(tau))
	}
	var specs []sweep.Spec
	for _, rt := range q.runtimes() {
		spec := sweep.Spec{
			Name:       "staleness-phase-diagram/" + rt.String(),
			Seed:       *q.Seed,
			Runtimes:   []sweep.Runtime{rt},
			Oracles:    oracles,
			Strategies: strategies,
			Workers:    q.Workers,
			Dims:       []int{q.Dim},
			Alphas:     []float64{0.3 / lmax},
			Replicates: q.Replicates,
			Iters:      q.Iters,
			Faults:     faults,
			Byzantine:  byz,
			Defenses:   defenses,
		}
		if rt == sweep.Machine && *q.Adversary > 0 {
			budget := *q.Adversary
			spec.Policy = func(int, *rng.Rand) shm.Policy {
				return &sched.MaxStale{Budget: budget}
			}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Cacheable reports whether the request's results are deterministic and
// may therefore be served from the result cache: machine-only sweeps are
// (the simulator is bit-reproducible regardless of pool interleaving);
// any hogwild leg races real goroutines, so its results must be
// recomputed per job.
func (q SweepRequest) Cacheable() bool { return q.Runtime == "machine" }

// expand normalizes the request and expands its grid once, returning
// the normalized form, the cache key and the total cell count together
// — the submit path needs all three, and building the specs (which
// probes one oracle instance per sparsity value to derive the step
// size) is the expensive part, so it happens a single time.
func (q SweepRequest) expand() (norm SweepRequest, key string, cells int, err error) {
	norm, err = q.Normalized()
	if err != nil {
		return norm, "", 0, err
	}
	specs, err := norm.Specs()
	if err != nil {
		return norm, "", 0, err
	}
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	word(uint64(norm.Iters))
	word(uint64(*norm.Adversary))
	for _, spec := range specs {
		_, _ = h.Write([]byte(spec.Name))
		expanded, err := spec.Cells()
		if err != nil {
			return norm, "", 0, err
		}
		word(uint64(len(expanded)))
		for _, c := range expanded {
			word(c.Seed)
		}
		cells += len(expanded)
	}
	return norm, fmt.Sprintf("%016x", h.Sum64()), cells, nil
}

// Key is the request's deterministic cache key: an FNV-1a fold of the
// expanded grid's seed-split cell coordinates (each cell's split seed
// already encodes the spec seed and every axis value) together with the
// execution parameters the cells do not carry — per-cell iteration
// budget and the machine adversary budget. Two requests that normalize
// to the same grid — say, an empty request and one spelling out every
// default — share a key by construction.
func (q SweepRequest) Key() (string, error) {
	_, key, _, err := q.expand()
	return key, err
}

// CellCount returns the total number of grid cells the request expands
// to across its runtime legs, without running anything.
func (q SweepRequest) CellCount() (int, error) {
	_, _, cells, err := q.expand()
	return cells, err
}
