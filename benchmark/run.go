package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"asyncsgd/internal/hogwild"
)

// hostRecord says where a ledger's numbers come from.
type hostRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// ShapeOnly is set when some workload keeps more threads runnable than
	// the host has CPUs: throughput then shows shape, not speed, and
	// -compare refuses the wall-clock metrics of such a ledger.
	ShapeOnly bool `json:"shape_only"`
}

func readHost() hostRecord {
	h := hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	for _, w := range workloads {
		if w.threads > h.NumCPU || w.threads > h.GOMAXPROCS {
			h.ShapeOnly = true
		}
	}
	return h
}

// setupReps is how many times a run sets its workload up at least (see
// setupTimed); setup_s is the median.
const setupReps = 3

// warmUpFor is the unmeasured stretch of closed-loop load before a window:
// the job workloads take about two seconds of traffic to reach their steady
// rate (heap growth, connection pools, CPU clocks), which a single warm-up
// op does not cover.
const warmUpFor = 1500 * time.Millisecond

// timedResult is one untraced window of one workload.
type timedResult struct {
	endToEnd
	SetupS float64
	// OpsPerS is successful ops ÷ window seconds, the throughput the
	// tracing overhead is taken against.
	OpsPerS float64
	// LostEvents counts cell events jobs_cluster streams lacked (see
	// toleratedLoss).
	LostEvents int
	errs       []error
}

// timedRun measures one workload with tracing off: set-up (reps times), an
// unmeasured warm-up stretch, a closed-loop window, the out-of-window
// checks.
func timedRun(w workload, e *env, seed uint64, dur time.Duration, reps int) (timedResult, error) {
	e.tr = nil
	inst, setupS, err := setupTimed(w, e, seed, reps)
	if err != nil {
		return timedResult{}, err
	}
	defer inst.close()
	runWindow(inst, warmUpFor, 0)
	win := runWindow(inst, dur, 0)
	return summarize(win, inst, setupS), nil
}

func summarize(win window, inst instance, setupS float64) timedResult {
	r := timedResult{endToEnd: win.endToEnd(), SetupS: setupS, errs: win.failures()}
	for _, s := range win.samples {
		r.LostEvents += s.lostEvents
	}
	if win.seconds > 0 {
		r.OpsPerS = float64(r.Attempted-r.Failed) / win.seconds
	}
	// A failed out-of-window check is one more attempt that failed.
	for _, err := range inst.finish() {
		r.errs = append(r.errs, err)
		r.Attempted++
		r.Failed++
	}
	return r
}

// tracedResult is the traced pass: every per-layer metric, and for each
// workload that got a full window how its traced throughput compares with
// an untraced one.
type tracedResult struct {
	layer       *layerValues
	perWorkload map[string]workloadTrace
	attempted   int
	failed      int
}

type workloadTrace struct {
	OverheadShare float64 `json:"trace_overhead_share"`
	CoverageShare float64 `json:"op_coverage_share"`
	Ops           int     `json:"ops"`
	TimedOpsPerS  float64 `json:"timed_ops_per_s"`
	TracedOpsPerS float64 `json:"traced_ops_per_s"`
}

// tracedPass runs every workload with spans on and derives the per-layer
// metrics. A workload named in focus gets a window of that length and an
// overhead figure — against timed[name] when the caller already measured
// it, else against an untraced window of a third of the length run here;
// the others run their quickOps, which is enough for their layer metrics.
func tracedPass(e *env, seed uint64, focus map[string]time.Duration, timed map[string]timedResult) (*tracedResult, *tracer) {
	tr := newTracer()
	res := &tracedResult{layer: newLayerValues(), perWorkload: make(map[string]workloadTrace)}
	l := res.layer
	// Intermediates of the grid108_overhead_ratio metrics: the grid_cli op
	// and the same grid as a single-client job, per stack.
	var gridOpMs float64
	grid108Ms := make(map[string]float64)
	for _, w := range workloads {
		dur := focus[w.name]
		ref, haveRef := timed[w.name]
		if dur > 0 && !haveRef {
			r, err := timedRun(w, e, seed, dur/3, 1)
			if err != nil {
				l.fail(err)
				continue
			}
			res.attempted += r.Attempted
			res.failed += r.Failed
			l.errs = append(l.errs, r.errs...)
			ref, haveRef = r, true
		}

		e.tr = tr
		inst, err := w.setup(e, seed)
		e.tr = nil
		if err != nil {
			l.fail(fmt.Errorf("setting up %s (traced): %w", w.name, err))
			continue
		}
		if dur > 0 {
			runWindow(inst, warmUpFor, 0)
		}
		mark := tr.mark()
		var win window
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if dur > 0 {
			win = runWindow(inst, dur, 0)
		} else {
			win = runWindow(inst, 0, w.quickOps)
		}
		runtime.ReadMemStats(&after)
		if prefix, ok := map[string]string{"grid_cli": "runtime.grid_", "jobs_serve": "runtime.jobs_"}[w.name]; ok {
			// What the whole process allocates per verified cell. The sweep
			// workloads live on a heap of a few megabytes, so the collector
			// cycles some 100–200 times a second and allocation is a cost an
			// optimisation can move. Counted, not timed: the figures repeat
			// from run to run, and the tracer's own allocations add about
			// half a percent.
			if cells := float64(win.cells()); cells > 0 {
				l.set(prefix+"alloc_bytes_per_cell", float64(after.TotalAlloc-before.TotalAlloc)/cells)
				l.set(prefix+"mallocs_per_cell", float64(after.Mallocs-before.Mallocs)/cells)
			}
		}
		sum := summarize(win, inst, 0)
		res.attempted += sum.Attempted
		res.failed += sum.Failed
		l.errs = append(l.errs, sum.errs...)
		if j, ok := inst.(*jobsInst); ok {
			j.st.taps.resolve()
		}
		spans := tr.since(mark)

		wt := workloadTrace{Ops: sum.Attempted, TracedOpsPerS: sum.OpsPerS, CoverageShare: opCoverage(spans, "op."+w.name)}
		if dur > 0 && haveRef && ref.OpsPerS > 0 {
			wt.TimedOpsPerS = ref.OpsPerS
			wt.OverheadShare = 1 - sum.OpsPerS/ref.OpsPerS
		}
		res.perWorkload[w.name] = wt

		switch inst := inst.(type) {
		case *hogwildInst:
			deriveHogwild(l, inst, win)
		case *gridInst:
			deriveGrid(l, spans)
			gridOpMs = sum.JobMsP50
		case *jobsInst:
			prefix, ms := deriveJobs(l, inst, win, e.full)
			grid108Ms[prefix] = ms
		}
		inst.close()
		if j, ok := inst.(*jobsInst); ok {
			// The executor reports a job finished (cluster: an fsync'd
			// append) after the client has read its result, so the last
			// job's journal span is only recorded by the time close has
			// waited for the executor.
			j.st.taps.resolve()
			if j.st.log != "" {
				deriveJournal(l, j)
			}
		}
	}

	probeAtomicfloat(l)
	probeSweepAndCore(l)
	probeClusterProtocol(l, e, true)
	probeClusterProtocol(l, e, false)
	probeClusterDirect(l, e)
	if e.full {
		probeIdlePickup(l, e, 10, time.Second)
	} else {
		probeIdlePickup(l, e, 3, 400*time.Millisecond)
	}

	ratio := func(name, num, den string) {
		if d := l.v[den]; d > 0 {
			l.set(name, l.v[num]/d)
		}
	}
	ratio("serve.overhead_ratio", "serve.grid24_job_ms_1client", "sweep.grid24_direct_ms")
	ratio("cluster.overhead_ratio", "cluster.grid24_job_ms_1client", "sweep.grid24_direct_ms")
	for prefix, ms := range grid108Ms {
		if ms > 0 && gridOpMs > 0 {
			l.set(prefix+".grid108_overhead_ratio", ms/gridOpMs)
		}
	}

	// The run-wide figures: the worst workload's overhead and coverage.
	worstOverhead, worstCoverage := math.Inf(-1), math.Inf(1)
	for name, wt := range res.perWorkload {
		if focus[name] > 0 {
			worstOverhead = math.Max(worstOverhead, wt.OverheadShare)
		}
		worstCoverage = math.Min(worstCoverage, wt.CoverageShare)
	}
	if !math.IsInf(worstOverhead, 0) {
		l.set("trace_overhead_share", worstOverhead)
	}
	if !math.IsInf(worstCoverage, 0) {
		l.set("trace.op_coverage_share", worstCoverage)
	}
	if n := tr.unattributed(); n > 0 {
		l.fail(fmt.Errorf("trace: %d spans name no op", n))
	}
	// l.errs holds one entry per failed op or check (counted above) and
	// one per failed set-up or probe, each of which is one more attempt
	// that failed.
	res.attempted += len(l.errs) - res.failed
	res.failed = len(l.errs)
	l.set("failed_share", float64(res.failed)/float64(res.attempted))
	return res, tr
}

// deriveHogwild turns a traced hogwild window, plus three untraced
// reference runs, into the hogwild and grad metrics of its workload.
func deriveHogwild(l *layerValues, h *hogwildInst, win window) {
	var wallNS, busyNS, iters, coordOps float64
	var quality []float64
	maxStale := 0
	for _, s := range win.samples {
		if s.err != nil {
			continue
		}
		wallNS += float64(s.wallNS)
		busyNS += s.oracleBusyNS
		iters += float64(s.updates)
		coordOps += float64(s.coordOps)
		quality = append(quality, s.quality)
		if s.maxStale > maxStale {
			maxStale = s.maxStale
		}
	}
	if iters == 0 {
		l.fail(fmt.Errorf("%s: no successful traced op", h.name))
		return
	}
	// Worker-time per iteration outside the oracle: the run span times its
	// workers, minus the oracle decorator's child spans.
	self := (wallNS*float64(h.workers) - busyNS) / iters

	// Untraced reference runs: the workload's own shape for the scaling
	// and allocation figures, one worker for the scaling baseline.
	rate := func(workers int, strat hogwild.Strategy) (perS, nsPerIter float64) {
		s := h.run(nil, workers, strat)
		if s.err != nil {
			l.fail(s.err)
			return 0, 0
		}
		return float64(s.updates) / (float64(s.wallNS) / 1e9), float64(s.wallNS) * float64(workers) / float64(s.updates)
	}
	var two, twoNS float64
	alloc := allocBytes(func() { two, twoNS = rate(h.workers, h.strategy()) })
	one, _ := rate(1, h.strategy())
	eff := 0.0
	if one > 0 {
		eff = two / (float64(h.workers) * one)
	}

	n := len(quality)
	switch h.name {
	case "hogwild_dense":
		l.setNote("hogwild.dense_self_ns_per_iter", self, "%d runs", n)
		l.set("hogwild.dense_coordops_per_iter", coordOps/iters)
		l.set("hogwild.dense_final_dist2_ratio", median(quality))
		l.set("hogwild.dense_scaling_eff", eff)
		l.set("hogwild.dense_alloc_bytes_per_run", alloc)
		l.setNote("grad.dense_oracle_ns_per_coord", busyNS/(iters*denseDim), "%d runs", n)
	case "hogwild_sparse_gated":
		l.setNote("hogwild.sparse_gated_self_ns_per_iter", self, "%d runs", n)
		l.set("hogwild.sparse_gated_coordops_per_iter", coordOps/iters)
		l.set("hogwild.sparse_gated_max_staleness", float64(maxStale))
		l.set("hogwild.sparse_gated_scaling_eff", eff)
		l.setNote("grad.sparse_ls_grad_ns", busyNS/iters, "%d runs, 1 iteration in 8 timed", n)
		// The gate's price: the same oracle and worker count without it.
		if _, freeNS := rate(h.workers, hogwild.NewSparseLockFree()); freeNS > 0 {
			l.set("hogwild.gate_ns_per_iter", twoNS-freeNS)
		}
	}
}

// deriveGrid reads the sweep metrics off the cell spans of traced grid ops.
func deriveGrid(l *layerValues, spans []span) {
	build := namedDurations(spans, "sweep.cell_oracle_build")
	if len(build) == 0 {
		l.fail(fmt.Errorf("grid_cli: no cell spans recorded"))
		return
	}
	l.setNote("sweep.cell_us_oracle_build", mean(build)/1e3, "%d cells", len(build))
	l.set("sweep.cell_us_run", mean(namedDurations(spans, "sweep.cell_run"))/1e3)
	l.set("sweep.cell_us_fill", mean(namedDurations(spans, "sweep.cell_fill"))/1e3)
	var cellNS, runNS float64
	for _, d := range namedDurations(spans, "sweep.cell") {
		cellNS += d
	}
	for _, d := range namedDurations(spans, "sweep.run") {
		runNS += d
	}
	l.set("sweep.pool_utilisation", cellNS/(runNS*float64(runtime.GOMAXPROCS(0))))
}

// deriveJobs turns a traced job window into the client-side serve or
// cluster metrics and runs the probes that need the live stack. It returns
// the layer the stack's metrics are named after and probeServe's grid108
// latency.
func deriveJobs(l *layerValues, j *jobsInst, win window, full bool) (prefix string, grid108Ms float64) {
	var lat, submit, first []float64
	rejected, lost := 0, 0
	for _, s := range win.samples {
		if s.rejected {
			rejected++
		}
		lost += s.lostEvents
		if s.err != nil {
			continue
		}
		lat = append(lat, float64(s.wallNS)/1e6)
		submit = append(submit, float64(s.submitNS)/1e3)
		first = append(first, float64(s.firstEventNS)/1e6)
	}
	prefix = "serve"
	if j.st.coord != nil {
		prefix = "cluster"
	}
	t := tailPercentile(lat)
	l.setNote(prefix+".job_ms_tail", t.Value, "p%g of %d jobs", t.Percentile, t.Samples)
	if prefix == "serve" {
		l.setNote("serve.submit_http_us_p50", median(submit), "%d jobs", len(submit))
		l.set("serve.first_event_ms_p50", median(first))
		l.set("serve.rejected_429", float64(rejected))
		sum, count := histogram(j.st.srv.MetricsRegistry().Render(), "asgdserve_queue_wait_seconds")
		if count > 0 {
			l.setNote("serve.queue_wait_ms_mean", sum/count*1e3, "%g jobs", count)
		}
		probeServeDirect(l, j)
	} else {
		l.set("cluster.requeues", float64(j.st.coord.Requeues()))
		l.set("cluster.duplicate_cells", float64(j.st.coord.DuplicateCells()))
		l.setNote("cluster.lost_cell_events", float64(lost), "%d jobs", len(win.samples))
	}
	return prefix, probeServe(l, j, prefix, full)
}

// deriveJournal reports what the closed job log says each job cost.
func deriveJournal(l *layerValues, j *jobsInst) {
	js := j.st.journal
	if js.err != nil || js.jobs == 0 {
		l.fail(fmt.Errorf("reopening the job log: %d jobs, err %v", js.jobs, js.err))
		return
	}
	jobs := float64(js.jobs)
	l.setNote("cluster.journal_appends_per_job", float64(js.appends)/jobs, "%d jobs", js.jobs)
	l.set("cluster.journal_bytes_per_job", float64(js.bytes)/jobs)
	l.set("cluster.leases_per_job", float64(js.leases)/jobs)
}

// histogram reads a histogram's _sum and _count out of a Prometheus text
// rendering.
func histogram(text, name string) (sum, count float64) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case name + "_sum":
			sum = v
		case name + "_count":
			count = v
		}
	}
	return sum, count
}
