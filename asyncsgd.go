// Package asyncsgd is a reproduction of "The Convergence of Stochastic
// Gradient Descent in Asynchronous Shared Memory" (Alistarh, De Sa,
// Konstantinov; PODC 2018). It provides:
//
//   - a deterministic asynchronous shared-memory machine with adaptive
//     adversarial scheduling (the paper's execution model),
//   - the lock-free SGD algorithms of the paper (Algorithm 1 "EpochSGD"
//     and Algorithm 2 "FullSGD") running on that machine,
//   - a real-goroutine Hogwild runtime with CAS-emulated float fetch&add,
//   - the martingale analysis toolkit (rate supermartingales, the failure
//     probability bounds of Theorems 3.1/6.3/6.5 and Corollary 6.7, and
//     the Section-5 lower-bound closed forms),
//   - the experiment drivers (E1–E19) that regenerate every quantitative
//     claim in the paper,
//   - the concurrent scenario-sweep engine (RunSweep) that executes
//     parameter grids on a GOMAXPROCS-aware pool with deterministic
//     per-cell seeds, and
//   - the sweep-as-a-service layer (Serve, SweepRequest): a streaming
//     HTTP job server over the sweep engine with an LRU result cache.
//
// This package is a facade: it re-exports the part of the internal
// packages that the examples use, so that applications depend on a single
// import; everything else (the fault-injection layer of DESIGN.md §8, the
// distributed cluster of §10) is reached through the internal packages and
// the commands.
// See README.md for the project map, DESIGN.md for the architecture and
// EXPERIMENTS.md for the recorded reproduction results. The Example
// functions in example_test.go are compiled, executed quickstarts.
package asyncsgd

import (
	"context"
	"io"

	"asyncsgd/internal/baseline"
	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/data"
	"asyncsgd/internal/experiments"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/martingale"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// --- vectors and randomness ---------------------------------------------

type (
	// Dense is a dense float64 vector.
	Dense = vec.Dense
	// Rand is the deterministic splittable PRNG used everywhere.
	Rand = rng.Rand
)

// NewDense returns a zero vector of dimension d.
func NewDense(d int) Dense { return vec.NewDense(d) }

// NewRand returns a seeded deterministic generator.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// --- objectives ----------------------------------------------------------

type (
	// Oracle is a stochastic-gradient oracle (see internal/grad).
	Oracle = grad.Oracle
	// SparseOracle is the optional sparse-gradient capability: the
	// oracle announces each gradient's read support and emits index/value
	// update lists, letting runtimes do O(nnz) work per iteration.
	SparseOracle = grad.SparseOracle
	// Constants are the analytic constants (c, L, M², R) of an objective.
	Constants = grad.Constants
	// Dataset is a synthetic supervised dataset.
	Dataset = data.Dataset
	// LinearConfig parameterizes synthetic linear-regression data.
	LinearConfig = data.LinearConfig
)

// NewQuad1D returns the paper's Section-5 objective f(x)=½x² with noisy
// gradients g̃(x) = x − ũ, ũ ~ N(0, σ²).
func NewQuad1D(sigma, r0 float64) (Oracle, error) { return grad.NewQuad1D(sigma, r0) }

// NewIsoQuadratic returns the isotropic quadratic f(x) = (c/2)‖x−x*‖²
// with Gaussian gradient noise σ and M²-ball radius r0.
func NewIsoQuadratic(d int, c, sigma, r0 float64, xstar Dense) (Oracle, error) {
	return grad.NewIsoQuadratic(d, c, sigma, r0, xstar)
}

// NewLeastSquares builds the least-squares oracle over a dataset.
func NewLeastSquares(ds *Dataset, r0 float64) (Oracle, error) {
	return grad.NewLeastSquares(ds, r0)
}

// NewSparseLeastSquares builds least squares over sparse feature rows —
// the workload where the sparse pipeline's O(nnz) updates beat the dense
// O(d) scan. Typically fed a dataset thinned with SparsifyRows.
func NewSparseLeastSquares(ds *Dataset, r0 float64) (*grad.SparseLeastSquares, error) {
	return grad.NewSparseLeastSquares(ds, r0)
}

// AsSparseOracle returns o's sparse capability, if it has one.
func AsSparseOracle(o Oracle) (SparseOracle, bool) { return grad.AsSparse(o) }

// SparsifyRows thins a dataset's feature rows in place (keeping each
// entry with probability keep, rescaled to preserve second moments).
func SparsifyRows(ds *Dataset, keep float64, r *Rand) error {
	return data.SparsifyRows(ds, keep, r)
}

// NewMiniBatch wraps an oracle so each gradient averages b base draws,
// shrinking the noise part of M² by 1/b.
func NewMiniBatch(base Oracle, b int) Oracle { return grad.NewMiniBatch(base, b) }

// MFConfig parameterizes the matrix-factorization workload.
type MFConfig = grad.MFConfig

// NewMatrixFactorization builds the non-convex sparse-update matrix
// completion workload (outside the convex theory; see internal/grad).
func NewMatrixFactorization(cfg MFConfig, r *Rand) (*grad.MatrixFactorization, error) {
	return grad.NewMatrixFactorization(cfg, r)
}

// GenLinear generates a synthetic linear-regression dataset.
func GenLinear(cfg LinearConfig, r *Rand) (*Dataset, error) { return data.GenLinear(cfg, r) }

// --- the shared-memory model and schedulers ------------------------------

type (
	// Policy schedules shared-memory steps (the adversary).
	Policy = shm.Policy
	// RoundRobin is the fair baseline scheduler.
	RoundRobin = sched.RoundRobin
	// StaleGradient is the Section-5 lower-bound adversary.
	StaleGradient = sched.StaleGradient
	// MaxStale is the budgeted maximum-staleness adaptive adversary.
	MaxStale = sched.MaxStale
	// Quantum models OS-style preemptive quanta (bursty benign schedules).
	Quantum = sched.Quantum
)

// --- the paper's algorithms ----------------------------------------------

type (
	// EpochConfig parameterizes Algorithm 1 on the simulated machine.
	EpochConfig = core.EpochConfig
	// EpochResult is the outcome of one EpochSGD run.
	EpochResult = core.EpochResult
	// FullConfig parameterizes Algorithm 2.
	FullConfig = core.FullConfig
	// FullResult is the outcome of Algorithm 2.
	FullResult = core.FullResult
	// SeqConfig parameterizes the sequential baseline.
	SeqConfig = baseline.SeqConfig
	// SeqResult is the sequential baseline outcome.
	SeqResult = baseline.SeqResult
)

// RunEpoch executes Algorithm 1 (lock-free SGD) on the simulated
// asynchronous shared-memory machine.
func RunEpoch(cfg EpochConfig) (*EpochResult, error) { return core.RunEpoch(cfg) }

// RunFull executes Algorithm 2 (epoch halving with guaranteed
// convergence, Corollary 7.1).
func RunFull(cfg FullConfig) (*FullResult, error) { return core.RunFull(cfg) }

// Window is one iteration's admission window, as EpochResult.Windows holds.
type Window = contention.Window

// TauMax is the paper's τmax, the maximum interval contention, over ws.
func TauMax(ws []Window) int { return contention.TauMax(ws) }

// TauAvg is the paper's τavg, the average interval contention, over ws.
func TauAvg(ws []Window) float64 { return contention.TauAvg(ws) }

// MaxAdmissions is the staleness the gated disciplines bound; it sorts ws.
func MaxAdmissions(ws []Window) int { return contention.MaxAdmissions(ws) }

// RunSequential executes the sequential SGD baseline.
func RunSequential(cfg SeqConfig) (*SeqResult, error) { return baseline.RunSequential(cfg) }

// AlphaSequential is the Theorem-3.1 step size α = cεϑ/M².
func AlphaSequential(cst Constants, eps, vartheta float64) float64 {
	return core.AlphaSequential(cst, eps, vartheta)
}

// AlphaAsync is the Corollary-6.7 step size for lock-free SGD under an
// adaptive adversary with maximum interval contention tauMax.
func AlphaAsync(cst Constants, eps, vartheta float64, tauMax, n, d int) float64 {
	return core.AlphaAsync(cst, eps, vartheta, tauMax, n, d)
}

// --- real-thread runtime --------------------------------------------------

type (
	// ParallelConfig parameterizes the real-goroutine runtime. Beyond
	// workers/iterations/step size it carries the synchronization
	// discipline (Strategy; nil runs lock-free Algorithm 1) and the
	// performance knob Padded, which gives every model coordinate its own
	// cache line — the choice for a small write-hot model; the default is
	// the compact cache-line-aligned layout.
	ParallelConfig = hogwild.Config
	// ParallelResult is its outcome.
	ParallelResult = hogwild.Result
	// Strategy is the pluggable synchronization discipline of the
	// real-thread runtime; implement it to add new disciplines without
	// touching RunParallel.
	Strategy = hogwild.Strategy
)

// NewLockFreeStrategy returns the Algorithm-1 lock-free strategy.
func NewLockFreeStrategy() Strategy { return hogwild.NewLockFree() }

// NewCoarseLockStrategy returns the consistent coarse-locking baseline.
func NewCoarseLockStrategy() Strategy { return hogwild.NewCoarseLock() }

// NewStripedLockStrategy returns striped per-coordinate locking with the
// given stripe count (0 ⇒ the package default).
func NewStripedLockStrategy(stripes int) Strategy { return hogwild.NewStripedLock(stripes) }

// NewSparseLockFreeStrategy returns the sparse-aware lock-free strategy
// (requires a SparseOracle; O(nnz) shared-memory operations per
// iteration).
func NewSparseLockFreeStrategy() Strategy { return hogwild.NewSparseLockFree() }

// StalenessBounded is implemented by strategies that enforce a staleness
// bound τ and expose the largest staleness any iteration actually
// exhibited (guaranteed ≤ τ).
type StalenessBounded = hogwild.StalenessBounded

// NewBoundedStalenessStrategy returns the bounded-staleness gated
// strategy: no iteration may begin while any iteration more than tau
// tickets older is still in flight, so the maximum delay τ the paper's
// Section-5 adversary exploits is capped at tau by construction. The
// returned strategy implements StalenessBounded. On the simulated
// machine, EpochConfig.StalenessBound is the counterpart.
func NewBoundedStalenessStrategy(tau int) Strategy { return hogwild.NewBoundedStaleness(tau) }

// NewUpdateBatchingStrategy returns the update-batching strategy: each
// worker accumulates b gradients in a local sparse buffer and applies
// them in one scatter fetch&add pass, cutting shared-memory write traffic
// ~b×. On the simulated machine, EpochConfig.Batch is the counterpart.
func NewUpdateBatchingStrategy(b int) Strategy { return hogwild.NewUpdateBatching(b) }

// NewEpochFenceStrategy returns the epoch-fencing strategy: iterations
// are fenced into epochs of the given length, and an epoch may start only
// once every earlier epoch's updates are fully applied — consistent
// snapshots at epoch boundaries, FullSGD's per-epoch-model condition
// inside a single run. On the simulated machine, EpochConfig.FenceEvery
// is the counterpart.
func NewEpochFenceStrategy(every int) Strategy { return hogwild.NewEpochFence(every) }

// RunParallel executes lock-free (or lock-based) SGD on real goroutines.
func RunParallel(cfg ParallelConfig) (*ParallelResult, error) { return hogwild.Run(cfg) }

// ParallelFullConfig parameterizes Algorithm 2 on real goroutines.
type ParallelFullConfig = hogwild.FullConfig

// ParallelFullResult is its outcome.
type ParallelFullResult = hogwild.FullResult

// RunParallelFull executes Algorithm 2 (halving-α epochs) on real
// goroutines with epoch fencing by construction.
func RunParallelFull(cfg ParallelFullConfig) (*ParallelFullResult, error) {
	return hogwild.RunFull(cfg)
}

// --- analysis --------------------------------------------------------------

// BoundAsync is the Corollary-6.7 failure-probability bound.
func BoundAsync(cst Constants, eps, vartheta float64, tauMax, n, d, T int, x0DistSq float64) float64 {
	return martingale.BoundAsync(cst, eps, vartheta, tauMax, n, d, T, x0DistSq)
}

// CriticalDelay is the Theorem-5.1 delay threshold for a fixed step size.
func CriticalDelay(alpha float64) int { return martingale.CriticalDelay(alpha) }

// SlowdownFactor is the Theorem-5.1 Ω(τ) slowdown factor.
func SlowdownFactor(alpha float64, tau int) float64 {
	return martingale.SlowdownFactor(alpha, tau)
}

// --- scenario sweeps --------------------------------------------------------

type (
	// SweepSpec declares a scenario grid for the concurrent sweep engine:
	// axes over runtime, oracle family, strategy/discipline, workers,
	// dimension, step size and seed replicates.
	SweepSpec = sweep.Spec
	// SweepRuntime selects a cell's runtime (real goroutines or the
	// deterministic simulated machine).
	SweepRuntime = sweep.Runtime
	// SweepOracle is one oracle-family axis entry (a named factory).
	SweepOracle = sweep.Oracle
	// SweepStrategy is one strategy/discipline axis entry, mapped onto
	// both runtimes (SweepBoundedStaleness builds one).
	SweepStrategy = sweep.Strategy
	// SweepCellResult is one cell's outcome (deterministic except timing
	// fields on the machine runtime).
	SweepCellResult = sweep.CellResult
	// SweepPointStat aggregates a grid point's seed replicates (Welford
	// mean/variance of loss and dist², worst staleness).
	SweepPointStat = sweep.PointStat
)

// SweepMachine is the deterministic simulated-machine sweep runtime.
const SweepMachine = sweep.Machine

// SweepBoundedStaleness is the τ-gated discipline on both runtimes (the
// same strategy↔machine-discipline pairing the differential suite
// checks).
func SweepBoundedStaleness(tau int) SweepStrategy { return sweep.BoundedStaleness(tau) }

// RunSweep expands the spec into cells with deterministic per-cell seeds
// and executes them on a bounded GOMAXPROCS-aware pool, returning results
// in cell-index order. See internal/sweep (DESIGN.md §5).
func RunSweep(s SweepSpec) ([]SweepCellResult, error) { return sweep.Run(s) }

// AggregateSweep groups cell results by grid point, folding seed
// replicates into Welford accumulators.
func AggregateSweep(results []SweepCellResult) []SweepPointStat {
	return sweep.Aggregate(results)
}

// --- sweep-as-a-service ------------------------------------------------------

type (
	// SweepRequest is the JSON job specification of the sweep service: a
	// staleness phase-diagram grid, one field per `asgdbench sweep` flag,
	// with absent fields defaulting to the CLI defaults (an empty request
	// is the standard 108-cell deterministic machine grid).
	SweepRequest = serve.SweepRequest
	// SweepEvent is one element of a job's result stream (NDJSON line /
	// SSE event): a per-cell result, the terminal asgdbench/v2 aggregate
	// document, or an error.
	SweepEvent = serve.Event
	// SweepJobStatus is the introspection record of one submitted job.
	SweepJobStatus = serve.JobStatus
	// SweepReport is the asgdbench/v2 JSON document (experiment records
	// plus the sweep record), shared byte-for-byte by `asgdbench -json`,
	// `asgdbench sweep -json` and the serve result endpoint.
	SweepReport = serve.Report
	// ServeConfig parameterizes the sweep job server (queue depth, LRU
	// result-cache size, retained history, drain timeout).
	ServeConfig = serve.Config
)

// Serve runs the sweep-as-a-service HTTP server on addr until ctx is
// canceled, then drains gracefully: submissions are refused while queued
// and running jobs finish, bounded by cfg.DrainTimeout. This is the
// library form of `cmd/asgdserve`.
func Serve(ctx context.Context, addr string, cfg ServeConfig) error {
	return serve.ListenAndServe(ctx, addr, cfg)
}

// RunSweepRequest executes one sweep request in process — normalize,
// expand, run on the weighted pool, aggregate — returning the
// asgdbench/v2 report and streaming per-cell results through onResult
// (may be nil). It is the exact pipeline an asgdserve job runs.
func RunSweepRequest(ctx context.Context, req SweepRequest, onResult func(SweepCellResult)) (*SweepReport, error) {
	return serve.RunRequest(ctx, req, onResult)
}

// --- experiments ------------------------------------------------------------

// ExperimentScale selects Quick (tests) or Full (reproduction runs).
type ExperimentScale = experiments.Scale

// Quick is the experiment scale the tests run (cmd/asgdbench -scale full
// runs the reproduction scale).
const Quick = experiments.Quick

// ExperimentIDs lists the available experiments (e1..e19).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment executes one experiment and writes its tables to w.
func RunExperiment(id string, scale ExperimentScale, w io.Writer) error {
	return experiments.Run(id, scale, w)
}
