package main

import (
	"fmt"
	"sync"
	"time"

	"asyncsgd/internal/rng"
)

// sample is one closed-loop operation as its caller saw it.
type sample struct {
	wallNS  int64 // the op's latency: the call, or POST sent → result read
	updates int64 // SGD iterations the op completed
	cells   int   // verified cells (a hogwild run is one cell)
	err     error // a failed check or a refused request; nil when correct

	// Filled by the workloads that have them, for the per-layer metrics.
	submitNS     int64 // jobs: POST round trip
	firstEventNS int64 // jobs: POST sent → first event line
	rejected     bool  // jobs: refused with 429
	lostEvents   int   // jobs_cluster: cell events the stream lacked
	coordOps     int64 // hogwild: shared coordinate accesses
	maxStale     int   // hogwild: observed maximum staleness
	quality      float64
	oracleBusyNS float64 // hogwild, traced: time inside the oracle, all workers
}

// instance is a set-up workload: its inputs are built, its servers run and
// one warm-up op has completed.
type instance interface {
	// clients is the number of closed-loop callers the workload drives.
	clients() int
	// op runs one operation for client and waits for its result.
	op(client int) sample
	// finish runs the checks that are kept outside the timed window and
	// returns one error per failed check.
	finish() []error
	close()
}

// workload is one of the benchmark's traffic shapes.
type workload struct {
	name string
	why  string
	// threads is the number of runnable threads the workload keeps busy;
	// a host with fewer CPUs gives shape-only wall-clock numbers.
	threads int
	// quickOps is how many ops the traced pass runs when this workload is
	// not the one in focus: enough for its per-layer metrics, short enough
	// to run under every other workload's traced run.
	quickOps int
	setup    func(e *env, seed uint64) (instance, error)
}

// env is what a run hands every workload.
type env struct {
	// outDir holds everything the benchmark writes: the cluster journal,
	// trace.json, ledger.json. Nothing is written outside it.
	outDir string
	// full selects the sample counts of the full ledger over the shorter
	// ones a single-workload run can afford.
	full bool
	// tr is the tracer of the traced pass, nil in the timed pass. A
	// workload set up with a tracer records spans around its layer calls
	// and, for the job workloads, installs its server-side taps; set up
	// without one it runs the unmodified shape.
	tr *tracer
}

var workloads = []workload{
	{
		name:     "hogwild_dense",
		why:      "lock-free hogwild.Run, 2 workers, d=2^18 banked, noiseless quadratic: atomicfloat LoadAll/FetchAddScaledRun are over 80% of the op; bypasses gate, sweep, serve, cluster",
		threads:  2,
		quickOps: 2,
		setup:    setupHogwildDense,
	},
	{
		name:     "hogwild_sparse_gated",
		why:      "bounded-staleness(4) hogwild.Run on grad.SparseLeastSquares (d=256, 51 nnz/row): GatherInto + scattered FetchAdd + ticket gate every iteration; bypasses the bulk kernels",
		threads:  2,
		quickOps: 2,
		setup:    setupHogwildSparse,
	},
	{
		name:     "grid_cli",
		why:      "serve.RunRequest of the default 108-cell machine grid as asgdbench sweep runs it: shm/core/contention/sched/grad/sweep do the work; bypasses hogwild, atomicfloat, server, cluster",
		threads:  2,
		quickOps: 3,
		setup:    setupGridCLI,
	},
	{
		name:     "jobs_serve",
		why:      "2 HTTP clients POST 24-cell sweeps to serve.New(Config{}), stream events, GET result: engine work is under half a job, so expand, queue wait, fan-out and encode show; bypasses the cluster",
		threads:  2,
		quickOps: 24,
		setup:    func(e *env, seed uint64) (instance, error) { return setupJobs(e, seed, false) },
	},
	{
		name:     "jobs_cluster",
		why:      "same traffic against coordinator + journal + 2 HTTP workers (asgdserve -cluster -cluster-log shape): adds lease grant, per-lease grid re-expansion, NDJSON report apply and fsync'd appends",
		threads:  2,
		quickOps: 24,
		setup:    func(e *env, seed uint64) (instance, error) { return setupJobs(e, seed, true) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mixSeed derives the seed of op k of a client from the run seed, so the
// same --seed gives the same inputs and no two ops share one.
func mixSeed(seed uint64, client, k int) uint64 {
	s := seed ^ uint64(client+1)<<48 ^ uint64(k+1)
	return rng.SplitMix64(&s)
}

// window is one measured stretch of closed-loop load.
type window struct {
	samples []sample
	seconds float64 // first op started → last op finished
}

// runWindow drives every client of inst in a closed loop — the next op
// starts when the previous one returned — for dur, or for exactly ops
// operations in total when ops > 0.
func runWindow(inst instance, dur time.Duration, ops int) window {
	n := inst.clients()
	perClient := make([][]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		quota := 0
		if ops > 0 {
			quota = ops / n
			if c < ops%n {
				quota++
			}
		}
		wg.Add(1)
		go func(c, quota int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if ops > 0 && k >= quota {
					return
				}
				if ops == 0 && time.Since(start) >= dur {
					return
				}
				perClient[c] = append(perClient[c], inst.op(c))
			}
		}(c, quota)
	}
	wg.Wait()
	w := window{seconds: time.Since(start).Seconds()}
	for _, s := range perClient {
		w.samples = append(w.samples, s...)
	}
	return w
}

// endToEnd is a window's user-visible result.
type endToEnd struct {
	UpdatesPerS float64
	CellsPerS   float64
	JobMsP50    float64
	Attempted   int
	Failed      int
}

func (w window) endToEnd() endToEnd {
	var rates, lats []float64
	e := endToEnd{Attempted: len(w.samples)}
	for _, s := range w.samples {
		if s.err != nil {
			e.Failed++
			continue
		}
		lats = append(lats, float64(s.wallNS)/1e6)
		rates = append(rates, float64(s.updates)/(float64(s.wallNS)/1e9))
	}
	e.UpdatesPerS = median(rates)
	e.JobMsP50 = median(lats)
	if w.seconds > 0 {
		e.CellsPerS = float64(w.cells()) / w.seconds
	}
	return e
}

// cells is the number of verified cells of the window's successful ops.
func (w window) cells() int {
	n := 0
	for _, s := range w.samples {
		if s.err == nil {
			n += s.cells
		}
	}
	return n
}

// failures lists the window's failed ops.
func (w window) failures() []error {
	var out []error
	for _, s := range w.samples {
		if s.err != nil {
			out = append(out, s.err)
		}
	}
	return out
}

// setupTimed sets the workload up several times, timing each (inputs,
// server and worker boot, one warm-up op), and returns the last instance
// with the median set-up time: at least minReps set-ups, and for the
// workloads whose set-up takes a fraction of a second up to maxSetupReps
// while they fit in setupBudget, because a 30 ms set-up timed three times
// is mostly scheduler luck. Earlier instances are closed before the next
// set-up so two never run side by side.
func setupTimed(w workload, e *env, seed uint64, minReps int) (instance, float64, error) {
	var (
		inst  instance
		times []float64
		total float64
	)
	for i := 0; i < minReps || (i < maxSetupReps && total < setupBudget.Seconds()); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(e, seed)
		if err != nil {
			return nil, 0, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
	}
	return inst, median(times), nil
}

const (
	maxSetupReps = 9
	setupBudget  = time.Second
)
