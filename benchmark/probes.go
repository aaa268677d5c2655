package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/cluster"
	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// layerValues collects per-layer metric values and, where a value needs
// one, the note printed beside it (sample count, which percentile).
type layerValues struct {
	v     map[string]float64
	notes map[string]string
	errs  []error
}

func newLayerValues() *layerValues {
	return &layerValues{v: make(map[string]float64), notes: make(map[string]string)}
}

// set records a per-layer metric. A name perLayerDefs does not declare is
// a failed attempt: what the benchmark emits is what BENCHMARK.json lists.
func (l *layerValues) set(name string, value float64) {
	if !perLayerDeclared[name] {
		l.fail(fmt.Errorf("per-layer metric %s is not declared", name))
		return
	}
	l.v[name] = value
}

func (l *layerValues) setNote(name string, value float64, format string, args ...any) {
	l.set(name, value)
	l.notes[name] = fmt.Sprintf(format, args...)
}

var perLayerDeclared = func() map[string]bool {
	m := make(map[string]bool, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.Name] = true
	}
	return m
}()

func (l *layerValues) fail(err error) { l.errs = append(l.errs, err) }

// missing returns one error per declared per-layer metric that has no
// value: each is an attempt that failed.
func (l *layerValues) missing() []error {
	var errs []error
	for _, d := range perLayerDefs {
		if _, ok := l.v[d.Name]; !ok {
			errs = append(errs, fmt.Errorf("per-layer metric %s was not measured", d.Name))
		}
	}
	return errs
}

// timeReps calls fn reps times and returns each call's duration in ns.
func timeReps(reps int, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0))
	}
	return out
}

// barrierRun is the contended-measurement shape of retina's
// contention_bench: n threads park on a barrier, are released together,
// each times its own body, and the slowest thread's time is reported —
// so goroutine-launch skew is outside the measurement and a thread that
// finished early against no contention cannot flatter the result.
func barrierRun(n int, body func(thread int)) time.Duration {
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	elapsed := make([]time.Duration, n)
	ready.Add(n)
	done.Add(n)
	for t := 0; t < n; t++ {
		go func(t int) {
			defer done.Done()
			ready.Done()
			<-release
			t0 := time.Now()
			body(t)
			elapsed[t] = time.Since(t0)
		}(t)
	}
	ready.Wait()
	close(release)
	done.Wait()
	var worst time.Duration
	for _, e := range elapsed {
		if e > worst {
			worst = e
		}
	}
	return worst
}

// probeAtomicfloat measures the L0 kernels both hogwild workloads sit on:
// the bulk ones on hogwild_dense's model shape, the scattered ones on
// hogwild_sparse_gated's.
func probeAtomicfloat(l *layerValues) {
	const reps = 9
	big := atomicfloat.New(denseDim, atomicfloat.Banked)
	buf := make([]float64, denseDim)
	src := make([]float64, denseDim)
	r := rng.New(1)
	r.NormalVector(src, 1)
	perCoord := func(ns float64) float64 { return ns / denseDim }

	l.set("atomicfloat.model_bytes", float64(big.MemBytes()))
	l.set("atomicfloat.load_all_ns_per_coord",
		perCoord(median(timeReps(reps, func() { big.LoadAll(buf) }))))
	runs := func(threads int) float64 {
		var ns []float64
		for i := 0; i < reps; i++ {
			ns = append(ns, float64(barrierRun(threads, func(int) { big.FetchAddScaledRun(0, src, -0.01) })))
		}
		return perCoord(median(ns))
	}
	l.set("atomicfloat.fetch_add_scaled_run_ns_per_coord", runs(1))
	l.set("atomicfloat.fetch_add_scaled_run_contended_ns_per_coord", runs(2))

	// The sparse shape: a packed cache-resident model, 51 scattered
	// coordinates per access.
	small := atomicfloat.New(sparseDim, atomicfloat.Packed)
	const nnz, rounds = 51, 20_000
	idx := r.Perm(sparseDim)[:nnz]
	sort.Ints(idx)
	vals := make([]float64, nnz)
	l.set("atomicfloat.gather_into_ns_per_coord", median(timeReps(reps, func() {
		for i := 0; i < rounds; i++ {
			small.GatherInto(vals, idx)
		}
	}))/(rounds*nnz))
	scatter := func(threads int) float64 {
		var ns []float64
		for i := 0; i < reps; i++ {
			ns = append(ns, float64(barrierRun(threads, func(int) {
				for i := 0; i < rounds; i++ {
					for _, j := range idx {
						small.FetchAdd(j, 1e-9)
					}
				}
			})))
		}
		return median(ns) / (rounds * nnz)
	}
	l.set("atomicfloat.fetch_add_ns", scatter(1))
	l.set("atomicfloat.fetch_add_contended_ns", scatter(2))
}

// defaultGrid expands the default 108-cell request the way every front
// end does.
func defaultGrid() (sweep.Spec, []sweep.Cell, error) {
	specs, err := serve.SweepRequest{}.Specs()
	if err != nil {
		return sweep.Spec{}, nil, err
	}
	cells, err := specs[0].Cells()
	return specs[0], cells, err
}

// probeSweepAndCore measures the layers under a grid cell, on the default
// request so the step counts repeat exactly from run to run.
func probeSweepAndCore(l *layerValues) {
	const reps = 5
	req := serve.SweepRequest{}
	l.set("sweep.spec_build_us", median(timeReps(reps, func() { _, _ = req.Specs() }))/1e3)
	spec, cells, err := defaultGrid()
	if err != nil {
		l.fail(fmt.Errorf("expanding the default grid: %w", err))
		return
	}
	l.set("sweep.cells_expand_us", median(timeReps(reps, func() { _, _ = spec.Cells() }))/1e3)

	oracleByName := make(map[string]sweep.Oracle)
	for _, o := range spec.Oracles {
		oracleByName[o.Name] = o
	}
	strategyByName := make(map[string]sweep.Strategy)
	for _, s := range spec.Strategies {
		strategyByName[s.Name] = s
	}

	// Every ninth cell: all four gates, all three thread counts and all
	// three sparsities appear among the twelve.
	var (
		buildNS, trackedNS, untrackedNS float64
		steps, iters                    int
		n                               int
	)
	for i := 0; i < len(cells); i += 9 {
		c := cells[i]
		var (
			oracle = oracleByName[c.Oracle]
			strat  = strategyByName[c.Strategy]
		)
		t0 := time.Now()
		o, x0, err := oracle.Make(c.Dim, rng.NewStream(c.Seed, 1<<32))
		buildNS += float64(time.Since(t0))
		if err != nil {
			l.fail(fmt.Errorf("building oracle %s: %w", c.Oracle, err))
			return
		}
		for _, track := range []bool{true, false} {
			cfg := core.EpochConfig{
				Threads: c.Workers, TotalIters: spec.Iters, Alpha: c.Alpha,
				Oracle: o, Seed: c.Seed, X0: x0, Track: track,
				Policy: spec.Policy(c.Workers, rng.NewStream(c.Seed, 1<<33)),
			}
			strat.Machine(&cfg)
			t0 := time.Now()
			out, err := core.RunEpoch(cfg)
			ns := float64(time.Since(t0))
			if err != nil {
				l.fail(fmt.Errorf("core.RunEpoch on cell %d: %w", c.Index, err))
				return
			}
			if track {
				trackedNS += ns
				steps += out.Stats.Steps
				iters += out.Tracker.Completed()
			} else {
				untrackedNS += ns
			}
		}
		n++
	}
	l.set("grad.sparse_ls_build_us", buildNS/float64(n)/1e3)
	l.setNote("core.run_epoch_us_per_cell", trackedNS/float64(n)/1e3, "%d cells", n)
	l.setNote("core.run_epoch_untracked_us_per_cell", untrackedNS/float64(n)/1e3, "%d cells", n)
	l.set("contention.track_share", 1-untrackedNS/trackedNS)
	l.set("core.steps_per_iter", float64(steps)/float64(iters))
	l.set("shm.steps_per_s", float64(steps)/(trackedNS/1e9))

	// RunSubset of 8 cells, one slot: what a lease pays on top of its
	// cells (the whole grid is expanded to pick eight).
	indices := []int{0, 14, 28, 42, 56, 70, 84, 98}
	var overhead []float64
	for i := 0; i < reps; i++ {
		sub := spec
		sub.MaxConcurrent = 1
		var cellNS float64
		sub.OnResult = func(r sweep.CellResult) { cellNS += r.Seconds * 1e9 }
		sub.Oracles = append([]sweep.Oracle(nil), spec.Oracles...)
		for k := range sub.Oracles {
			mk := sub.Oracles[k].Make
			sub.Oracles[k].Make = func(d int, r *rng.Rand) (grad.Oracle, vec.Dense, error) {
				t0 := time.Now()
				o, x0, err := mk(d, r)
				cellNS += float64(time.Since(t0))
				return o, x0, err
			}
		}
		t0 := time.Now()
		if _, err := sweep.RunSubset(context.Background(), sub, indices); err != nil {
			l.fail(fmt.Errorf("sweep.RunSubset: %w", err))
			return
		}
		overhead = append(overhead, float64(time.Since(t0))-cellNS)
	}
	l.setNote("sweep.run_subset_overhead_us", median(overhead)/1e3, "8 of 108 cells, minus oracle build and run of each")

	// The 24-cell job body without a server.
	var direct []float64
	var rep *serve.Report
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		rep, err = serve.RunRequest(context.Background(), grid24(uint64(i)+1), nil)
		if err == nil {
			var buf bytes.Buffer
			err = rep.Encode(&buf)
		}
		if err != nil {
			l.fail(fmt.Errorf("grid24 direct: %w", err))
			return
		}
		direct = append(direct, float64(time.Since(t0)))
	}
	l.setNote("sweep.grid24_direct_ms", median(direct)/1e6, "%d runs", reps)

	// serve's own share of a grid24 job, called directly.
	q := grid24(99)
	l.set("serve.expand_us", median(timeReps(reps, func() { _, _ = q.Key() }))/1e3)
	norm, err := q.Normalized()
	if err != nil {
		l.fail(err)
		return
	}
	results := rep.Sweep.Results
	var assembled *serve.Report
	l.set("serve.assemble_report_us", median(timeReps(reps, func() {
		assembled = serve.AssembleReport(norm, []string{rep.Sweep.Name}, results, time.Second)
	}))/1e3)
	l.set("serve.encode_doc_us", median(timeReps(reps, func() {
		var buf bytes.Buffer
		_ = assembled.Encode(&buf)
	}))/1e3)
}

// probeServe measures the server paths no workload op isolates, on a live
// jobs_serve stack: direct Submit (fresh and cache hit), event replay,
// result and metrics reads, single-client latency at both grid sizes. It
// returns the median latency of the default 108-cell grid as a job, which
// only the grid108_overhead_ratio metrics need (0 when no job succeeded).
func probeServe(l *layerValues, j *jobsInst, prefix string, full bool) (grid108Ms float64) {
	n := 8
	if full {
		n = 20
	}
	var lat []float64
	for i := 0; i < n; i++ {
		s := j.op(0)
		if s.err != nil {
			l.fail(s.err)
			return 0
		}
		lat = append(lat, float64(s.wallNS)/1e6)
	}
	l.setNote(prefix+".grid24_job_ms_1client", median(lat), "%d jobs", n)

	// The default 108-cell grid as a job, one client.
	j.request, j.cells = func(seed uint64) serve.SweepRequest { return serve.SweepRequest{Seed: &seed} }, defaultGridCells
	lat = lat[:0]
	for i := 0; i < 3; i++ {
		s := j.op(0)
		if s.err != nil {
			l.fail(s.err)
			break
		}
		lat = append(lat, float64(s.wallNS)/1e6)
	}
	j.request, j.cells = grid24, grid24Cells
	return median(lat)
}

// probeServeDirect covers the serve metrics that need the Server value or
// a finished job's id. Only jobs_serve runs it.
func probeServeDirect(l *layerValues, j *jobsInst) {
	const reps = 7
	ctx := context.Background()
	opID := j.tr.newOp()
	root := j.tr.start("op.probe_serve", 0, opID)
	defer root.end()
	var fresh, hit, replay, result, render []float64
	for i := 0; i < reps; i++ {
		req := grid24(mixSeed(j.seed, 7, i))
		t0 := time.Now()
		job, err := j.st.srv.Submit(req)
		fresh = append(fresh, float64(time.Since(t0)))
		if err != nil {
			l.fail(fmt.Errorf("direct Submit: %w", err))
			return
		}
		j.st.taps.bind(job.ID(), opID, root.id())
		if _, err := job.Wait(ctx); err != nil {
			l.fail(err)
			return
		}
		t0 = time.Now()
		cachedJob, err := j.st.srv.Submit(req)
		hit = append(hit, float64(time.Since(t0)))
		if err != nil || !cachedJob.Status().Cached {
			l.fail(fmt.Errorf("resubmitting a finished request did not hit the cache (err %v)", err))
			return
		}
		j.st.taps.bind(cachedJob.ID(), opID, root.id())
		get := func(path string) (int, float64, error) {
			t0 := time.Now()
			resp, err := j.st.client.Get(j.st.base + path)
			if err != nil {
				return 0, 0, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			return bytes.Count(body, []byte("\n")), float64(time.Since(t0)), err
		}
		lines, ns, err := get("/v1/sweeps/" + job.ID() + "/events")
		if err != nil || lines != grid24Cells+1 {
			l.fail(fmt.Errorf("replaying events of %s: %d lines, err %v", job.ID(), lines, err))
			return
		}
		replay = append(replay, ns/float64(lines))
		if _, ns, err = get("/v1/sweeps/" + job.ID() + "/result"); err != nil {
			l.fail(err)
			return
		}
		result = append(result, ns)
		if _, ns, err = get("/metrics"); err != nil {
			l.fail(err)
			return
		}
		render = append(render, ns)
	}
	l.set("serve.submit_us", median(fresh)/1e3)
	l.set("serve.cache_hit_submit_us", median(hit)/1e3)
	l.set("serve.events_replay_us_per_event", median(replay)/1e3)
	l.set("serve.result_get_us", median(result)/1e3)
	l.set("metrics.render_us", median(render)/1e3)
}

// --- cluster protocol probes ---

// protoClient is the hand-rolled worker of the protocol probes: it speaks
// the exported protocol types to the mounted endpoints, one timed call at
// a time, so each endpoint's cost is seen without a worker loop around it.
type protoClient struct {
	base   string
	client *http.Client
}

// post sends in as JSON, decodes a 200 body into out (when non-nil) and
// returns the status and the round-trip time.
func (p protoClient) post(path string, in, out any) (int, float64, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, 0, err
	}
	return p.postRaw(path, "application/json", body, out)
}

func (p protoClient) postRaw(path, contentType string, body []byte, out any) (int, float64, error) {
	t0 := time.Now()
	resp, err := p.client.Post(p.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, float64(time.Since(t0)), err
}

// probeJobDeadline bounds how long a probe waits on one 24-cell job (tens of
// milliseconds of work) before it records a failed attempt and gives up.
const probeJobDeadline = 30 * time.Second

// jobLost reports whether a job ended without a document.
func jobLost(state string) bool { return state == serve.JobFailed || state == serve.JobCanceled }

// probeClusterProtocol drives a worker-less coordinator by hand: register,
// lease a submitted job's batches, heartbeat, report results computed
// here, poll the empty queue. It runs once with the journal and once
// without, so the report path's fsync share is the difference.
func probeClusterProtocol(l *layerValues, e *env, journal bool) {
	st, err := newStack(e, stackOpts{cluster: true, journal: journal})
	if err != nil {
		l.fail(fmt.Errorf("protocol probe stack: %w", err))
		return
	}
	defer st.close()
	p := protoClient{base: st.base, client: st.client}

	var register, grant, empty, beat, apply []float64
	cells := 0
	for round := 0; round < 3; round++ {
		var reg cluster.RegisterResponse
		status, ns, err := p.post("/cluster/v1/register", cluster.RegisterRequest{Name: "probe"}, &reg)
		if err != nil || status != http.StatusOK {
			l.fail(fmt.Errorf("register: status %d, err %v", status, err))
			return
		}
		register = append(register, ns)

		job, err := st.srv.Submit(grid24(uint64(1000 + round)))
		if err != nil {
			l.fail(fmt.Errorf("protocol probe submit: %w", err))
			return
		}
		deadline := time.Now().Add(probeJobDeadline)
		for {
			if state := job.Status().State; jobLost(state) || time.Now().After(deadline) {
				l.fail(fmt.Errorf("protocol probe job is %q, leases still wanted", state))
				return
			}
			var ls cluster.LeaseResponse
			status, ns, err := p.post("/cluster/v1/lease", cluster.LeaseRequest{WorkerID: reg.WorkerID}, &ls)
			if err != nil {
				l.fail(fmt.Errorf("lease: %w", err))
				return
			}
			if status == http.StatusNoContent {
				if job.Status().State == serve.JobDone {
					empty = append(empty, ns)
					break
				}
				time.Sleep(200 * time.Microsecond) // the executor has not dispatched the job yet
				continue
			}
			grant = append(grant, ns)
			if status, ns, err = p.post("/cluster/v1/heartbeat",
				cluster.HeartbeatRequest{WorkerID: reg.WorkerID, LeaseID: ls.LeaseID}, nil); err != nil || status != http.StatusNoContent {
				l.fail(fmt.Errorf("heartbeat: status %d, err %v", status, err))
				return
			}
			beat = append(beat, ns)

			// Run the batch as a worker would, then report it in one
			// timed NDJSON body.
			specs, err := ls.Request.Specs()
			if err != nil {
				l.fail(err)
				return
			}
			results, err := sweep.RunSubset(context.Background(), specs[ls.Leg], ls.Cells)
			if err != nil {
				l.fail(err)
				return
			}
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			for _, r := range results {
				if err := enc.Encode(r); err != nil {
					l.fail(err)
					return
				}
			}
			var ack cluster.ReportAck
			status, ns, err = p.postRaw("/cluster/v1/report/"+ls.LeaseID, "application/x-ndjson", body.Bytes(), &ack)
			if err != nil || status != http.StatusOK || ack.Accepted != len(results) {
				l.fail(fmt.Errorf("report: status %d, accepted %d of %d, err %v", status, ack.Accepted, len(results), err))
				return
			}
			apply = append(apply, ns)
			cells += len(results)
		}
	}
	perCell := mean(apply) * float64(len(apply)) / float64(cells)
	if !journal {
		l.setNote("cluster.report_apply_nolog_us_per_cell", perCell/1e3, "%d cells", cells)
		return
	}
	l.setNote("cluster.report_apply_us_per_cell", perCell/1e3, "%d cells", cells)
	l.set("cluster.register_us", median(register)/1e3)
	l.setNote("cluster.lease_grant_us", median(grant)/1e3, "%d leases", len(grant))
	l.set("cluster.lease_empty_us", median(empty)/1e3)
	l.set("cluster.heartbeat_us", median(beat)/1e3)
}

// probeClusterDirect measures the two costs a lease pays outside the
// protocol: the worker's grid re-expansion and one durable journal append.
func probeClusterDirect(l *layerValues, e *env) {
	req, err := grid24(5).Normalized()
	if err != nil {
		l.fail(err)
		return
	}
	l.set("cluster.worker_expand_us_per_lease", median(timeReps(7, func() {
		specs, err := req.Specs()
		if err == nil {
			_, _ = specs[0].Cells()
		}
	}))/1e3)

	dir, err := os.MkdirTemp(e.outDir, "append-")
	if err != nil {
		l.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	log, _, err := cluster.OpenJobLog(filepath.Join(dir, "joblog"))
	if err != nil {
		l.fail(err)
		return
	}
	defer log.Close()
	rep, err := serve.RunRequest(context.Background(), grid24(6), nil)
	if err != nil {
		l.fail(err)
		return
	}
	i := 0
	appends := timeReps(40, func() {
		cell := rep.Sweep.Results[i%len(rep.Sweep.Results)]
		i++
		if err := log.Append(cluster.Record{Type: "complete", Job: "probe", Cell: &cell}); err != nil {
			l.fail(err)
		}
	})
	l.setNote("cluster.journal_append_us_p50", median(appends)/1e3, "%d appends", len(appends))
}

// probeIdlePickup measures what the coordinator's default 250 ms idle
// poll costs a job that arrives at an idle cluster: one in-process worker,
// default Config, each job submitted after the worker has gone idle.
func probeIdlePickup(l *layerValues, e *env, samples int, idle time.Duration) {
	st, err := newStack(e, stackOpts{cluster: true})
	if err != nil {
		l.fail(fmt.Errorf("idle-pickup stack: %w", err))
		return
	}
	defer st.close()
	ctx, cancel := context.WithCancel(context.Background())
	w := cluster.NewLocalWorker(st.coord, cluster.WorkerConfig{Name: "idle", MaxConcurrent: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx) // returns ctx.Err() on cancel
	}()
	defer wg.Wait()
	defer cancel()

	// The worker's idle timer ticks every defaultPoll, so jobs submitted a
	// whole number of ticks apart would all meet it at one phase — 8 ms or
	// 250 ms depending on the run. Each sample idles a step of the poll
	// period longer than the last, so the samples cover the period evenly.
	const defaultPoll = 250 * time.Millisecond // cluster.Config's default
	var ms []float64
	for i := 0; i < samples; i++ {
		time.Sleep(idle + time.Duration(i)*defaultPoll/time.Duration(samples))
		t0 := time.Now()
		job, err := st.srv.Submit(grid24(uint64(2000 + i)))
		if err != nil {
			l.fail(err)
			return
		}
		for job.Status().Completed == 0 {
			if state := job.Status().State; jobLost(state) || time.Since(t0) > probeJobDeadline {
				l.fail(fmt.Errorf("idle-pickup job is %q with no cell after %v", state, time.Since(t0)))
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
		waitCtx, stop := context.WithTimeout(ctx, probeJobDeadline)
		status, err := job.Wait(waitCtx)
		stop()
		if err != nil || status.State != serve.JobDone {
			l.fail(fmt.Errorf("idle-pickup job: state %q, err %v", status.State, err))
			return
		}
	}
	l.setNote("cluster.idle_pickup_ms_default_poll", median(ms), "%d jobs, each submitted after ≥ %v idle at a different phase of the poll; submit → first cell result", samples, idle)
}

// allocBytes returns the bytes fn allocates.
func allocBytes(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}
