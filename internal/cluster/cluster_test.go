package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// testRequest is the shared small machine grid: 2 taus × 2 replicates =
// 4 deterministic cells, the same shape the asgdbench byte-identity test
// uses.
func testRequest() serve.SweepRequest {
	seed, adv := uint64(11), 6
	return serve.SweepRequest{
		Taus: []int{2, 4}, Workers: []int{2}, Sparsity: []float64{0.4},
		Dim: 8, Replicates: 2, Iters: 40, Seed: &seed, Adversary: &adv,
		Runtime: "machine",
	}
}

// localDocument runs the request through the in-process executor path
// and returns the canonical document bytes.
func localDocument(t *testing.T, req serve.SweepRequest) []byte {
	t.Helper()
	report, err := serve.RunRequest(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stripTiming drops the two documented nondeterministic fields
// (DESIGN.md §6: seconds, updates_per_sec).
func stripTiming(doc []byte) string {
	var keep []string
	for _, line := range strings.Split(string(doc), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\"seconds\"") || strings.HasPrefix(trimmed, "\"updates_per_sec\"") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// waitResult blocks until the job is done and returns its document.
func waitResult(t *testing.T, job *serve.Job) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("waiting for job %s: %v", job.ID(), err)
	}
	if st.State != serve.JobDone {
		t.Fatalf("job %s finished %s (err %q), want done", job.ID(), st.State, st.Err)
	}
	doc, ok := job.Result()
	if !ok {
		t.Fatalf("job %s done but no result", job.ID())
	}
	return doc
}

// leaseWithRetry waits until the executor has made the job's batches
// available and leases one.
func leaseWithRetry(t *testing.T, c *Coordinator, workerID string) *LeaseResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for ctx.Err() == nil {
		ls, err := c.leaseWait(ctx, workerID)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if ls != nil {
			return ls
		}
	}
	t.Fatal("no lease granted within deadline")
	return nil
}

// executeLease runs a leased batch exactly as a worker does.
func executeLease(t *testing.T, ls *LeaseResponse) []sweep.CellResult {
	t.Helper()
	specs, err := ls.Request.Specs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.RunSubset(context.Background(), specs[ls.Leg], ls.Cells)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// reportAll applies a batch's results to the coordinator.
func reportAll(t *testing.T, c *Coordinator, leaseID string, results []sweep.CellResult) {
	t.Helper()
	for _, r := range results {
		if _, err := c.applyResult(leaseID, r); err != nil {
			t.Fatalf("report %s cell %d: %v", leaseID, r.Index, err)
		}
	}
}

// checkCoverage asserts the document has one result per grid cell, with
// indices 0..n-1 ascending, no duplicates, no errors.
func checkCoverage(t *testing.T, doc []byte, req serve.SweepRequest) {
	t.Helper()
	want, err := req.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.Report
	if err := json.Unmarshal(doc, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sweep == nil {
		t.Fatal("document has no sweep record")
	}
	if got := len(rep.Sweep.Results); got != want {
		t.Fatalf("document has %d results, want %d", got, want)
	}
	for i, r := range rep.Sweep.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d: duplicate or missing cell", i, r.Index)
		}
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", i, r.Err)
		}
	}
}

// TestClusterOneLocalWorkerByteIdentity: the degenerate single-node
// cluster reproduces the in-process executor's bytes modulo timing.
func TestClusterOneLocalWorkerByteIdentity(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c, WorkerConfig{Name: "local-0"})
	go func() { _ = w.Run(ctx) }()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("cluster and local documents diverge beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
}

// TestClusterHTTPWorkerByteIdentity drives a worker over the real HTTP
// transport (register, lease, NDJSON report stream, heartbeat) against
// the mounted protocol endpoints and pins the same byte contract.
func TestClusterHTTPWorkerByteIdentity(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()
	ts := httptest.NewServer(c.Mount(srv.Handler()))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := NewWorker(WorkerConfig{Coordinator: ts.URL, Name: "http-0"})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Run(ctx) }()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("HTTP cluster and local documents diverge beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
	if c.mRemoteCells.Value() == 0 {
		t.Fatal("no cells traveled through the HTTP worker")
	}
}

// TestClusterThreeWorkersShuffledReportOrderByteIdentity leases the grid
// across three workers batch by batch and reports the batches in
// reversed order — the document must still be byte-identical to the
// local run, because reassembly is by document-global index, never by
// arrival order.
func TestClusterThreeWorkersShuffledReportOrderByteIdentity(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 1, LeaseTTL: time.Minute})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := req.CellCount()
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]RegisterResponse, 3)
	for i := range workers {
		workers[i] = c.register(RegisterRequest{Name: fmt.Sprintf("shuffle-%d", i)})
	}
	type granted struct {
		ls      *LeaseResponse
		results []sweep.CellResult
	}
	var grants []granted
	for got := 0; got < cells; {
		ls := leaseWithRetry(t, c, workers[len(grants)%3].WorkerID)
		grants = append(grants, granted{ls: ls, results: executeLease(t, ls)})
		got += len(ls.Cells)
	}
	for i := len(grants) - 1; i >= 0; i-- { // reversed lease order
		reportAll(t, c, grants[i].ls.LeaseID, grants[i].results)
	}

	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("shuffled-order cluster document diverges beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
}

// gatedDispatcher is the coordinator with a hook run inside every cell
// callback, before the event reaches the server.
type gatedDispatcher struct {
	*Coordinator
	gate func()
}

func (g gatedDispatcher) DispatchSweep(ctx context.Context, jobID string, req serve.SweepRequest,
	onCell func(sweep.CellResult), onTelemetry func(sweep.TelemetrySample)) (*serve.Report, error) {
	return g.Coordinator.DispatchSweep(ctx, jobID, req, func(r sweep.CellResult) {
		g.gate()
		onCell(r)
	}, onTelemetry)
}

// TestClusterTwoReportStreamsDeliverEveryCellEvent: with two report
// streams, the one holding the job's last cell must not complete the job
// while its peer is still inside the cell callback — the server would
// append the terminal event first and drop the peer's cell event as
// post-terminal. Stream A is held inside the callback of its last cell
// until stream B has applied every other cell, the final one included.
func TestClusterTwoReportStreamsDeliverEveryCellEvent(t *testing.T) {
	req := testRequest()
	cells, err := req.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{BatchSize: cells / 2, LeaseTTL: time.Minute})
	defer c.Close()
	var (
		events  atomic.Int64
		held    = make(chan struct{})
		release = make(chan struct{})
	)
	srv := serve.New(serve.Config{Journal: c, Dispatcher: gatedDispatcher{c, func() {
		if int(events.Add(1)) == cells/2 { // stream A's last cell
			close(held)
			<-release
		}
	}}})
	defer srv.Close()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	lsA := leaseWithRetry(t, c, c.register(RegisterRequest{Name: "stream-a"}).WorkerID)
	lsB := leaseWithRetry(t, c, c.register(RegisterRequest{Name: "stream-b"}).WorkerID)
	resA, resB := executeLease(t, lsA), executeLease(t, lsB)

	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		for _, r := range resA {
			if _, err := c.applyResult(lsA.LeaseID, r); err != nil {
				t.Errorf("stream A cell %d: %v", r.Index, err)
			}
		}
	}()
	<-held
	reportAll(t, c, lsB.LeaseID, resB)

	c.mu.Lock()
	active := c.jobs[job.ID()] // nil once DispatchSweep has returned
	c.mu.Unlock()
	released := active == nil
	if !released {
		select {
		case <-active.done:
			released = true
		default:
		}
	}
	if released {
		t.Error("job completed while a cell callback was still in flight")
	}
	close(release)
	<-aDone

	checkCoverage(t, waitResult(t, job), req)
	if got := job.Status().Completed; got != cells {
		t.Fatalf("job streamed %d cell events before its aggregate, want %d", got, cells)
	}
}

// TestClusterWorkerCrashMidBatchRequeues: a worker leases a batch and
// dies without reporting (a SIGKILL's observable effect: no report, no
// heartbeat). After the lease TTL the cells requeue, a healthy worker
// completes the sweep with full coverage and no duplicate indices, and
// the requeue counter records the loss. The final document is still
// byte-identical to the local run — the acceptance criterion.
func TestClusterWorkerCrashMidBatchRequeues(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: 100 * time.Millisecond, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// The crashing worker: takes one batch, reports nothing, never
	// heartbeats again.
	evil := c.register(RegisterRequest{Name: "crasher"})
	stolen := leaseWithRetry(t, c, evil.WorkerID)
	if len(stolen.Cells) == 0 {
		t.Fatal("empty lease")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c, WorkerConfig{Name: "healthy"})
	go func() { _ = w.Run(ctx) }()

	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("post-crash cluster document diverges beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
	if n := c.Requeues(); n < int64(len(stolen.Cells)) {
		t.Fatalf("requeued %d cells, want ≥ %d (the crashed lease)", n, len(stolen.Cells))
	}
}

// TestClusterZombieWorkerDuplicateReportDropped: the crashed worker's
// batch is re-executed by a healthy worker; when the "dead" worker then
// reports late, the results are duplicates of completed cells and must
// be dropped (counted, not applied) — and its lease is long revoked, so
// the report errors ErrLeaseRevoked.
func TestClusterZombieWorkerDuplicateReportDropped(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: 50 * time.Millisecond, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	zombie := c.register(RegisterRequest{Name: "zombie"})
	stolen := leaseWithRetry(t, c, zombie.WorkerID)
	results := executeLease(t, stolen) // executes, but reports only later

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c, WorkerConfig{Name: "healthy"})
	go func() { _ = w.Run(ctx) }()
	_ = waitResult(t, job) // sweep completes without the zombie

	if _, err := c.applyResult(stolen.LeaseID, results[0]); err != ErrLeaseRevoked {
		t.Fatalf("late report on expired lease: got %v, want ErrLeaseRevoked", err)
	}
}

// TestClusterCoordinatorCrashRecovery kills the coordinator after a
// partial sweep (some cells reported and logged) and restarts it from
// the job log: the queue replays, the completed cells are not
// re-executed, and the finished document is byte-identical to the local
// run.
func TestClusterCoordinatorCrashRecovery(t *testing.T) {
	req := testRequest()
	path := filepath.Join(t.TempDir(), "joblog")

	// Phase 1: accept the job, complete one batch, then "crash" — the
	// log's file handle closes (no more durable writes) and the phase-1
	// coordinator/server are simply abandoned, exactly what SIGKILL
	// leaves behind.
	c1, err := NewCoordinatorWithLog(Config{BatchSize: 2, LeaseTTL: time.Minute}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	srv1 := serve.New(serve.Config{Dispatcher: c1, Journal: c1})
	defer srv1.Close()
	if jobs, err := c1.Recover(srv1); err != nil || len(jobs) != 0 {
		t.Fatalf("fresh log recovered %d jobs, err %v", len(jobs), err)
	}
	if _, err := srv1.Submit(req); err != nil {
		t.Fatal(err)
	}
	reg := c1.register(RegisterRequest{Name: "phase1"})
	ls := leaseWithRetry(t, c1, reg.WorkerID)
	phase1 := executeLease(t, ls)
	reportAll(t, c1, ls.LeaseID, phase1)
	if err := c1.cfg.Log.Close(); err != nil { // the crash point
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator replays the log and finishes the job.
	c2, err := NewCoordinatorWithLog(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	srv2 := serve.New(serve.Config{Dispatcher: c2, Journal: c2})
	defer srv2.Close()
	jobs, err := c2.Recover(srv2)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c2, WorkerConfig{Name: "phase2"})
	go func() { _ = w.Run(ctx) }()

	got := waitResult(t, jobs[0])
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("recovered document diverges beyond timing:\n--- recovered\n%s\n--- local\n%s", g, w)
	}
	if n := c2.mRecovered.Value(); n != float64(len(phase1)) {
		t.Fatalf("replayed %v cells from the log, want %d", n, len(phase1))
	}
	cells, err := req.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.mRemoteCells.Value(); n != float64(cells-len(phase1)) {
		t.Fatalf("re-executed %v cells, want %d (recovered cells must not re-run)", n, cells-len(phase1))
	}
}

// TestClusterJobLogTornTailRecovery appends a torn record (a crash
// mid-append) to a live log and verifies reopening tolerates it: the
// whole-record prefix replays, the tail is truncated, and the log is
// appendable again.
func TestClusterJobLogTornTailRecoversCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	log, records, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh log has %d records", len(records))
	}
	req := testRequest()
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(Record{Type: recSubmit, Job: "j1", Request: &norm}); err != nil {
		t.Fatal(err)
	}
	res := sweep.CellResult{Cell: sweep.Cell{Index: 2, Runtime: "machine"}, Iters: 40}
	if err := log.Append(Record{Type: recComplete, Job: "j1", Cell: &res}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn tail: a length prefix promising 100 bytes, then only 7.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{100, 0, 0, 0, 'g', 'a', 'r', 'b', 'a', 'g', 'e'}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sizeBefore, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	log2, records, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(records) != 2 {
		t.Fatalf("replayed %d records past the torn tail, want 2", len(records))
	}
	jobs := ReplayQueueState(records)
	if len(jobs) != 1 || jobs[0].OldID != "j1" {
		t.Fatalf("replay state: %+v, want one unfinished job j1", jobs)
	}
	if got, ok := jobs[0].Results[2]; !ok || got.Iters != 40 {
		t.Fatalf("replayed cell 2 = %+v, want the logged result", got)
	}
	sizeAfter, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter.Size() >= sizeBefore.Size() {
		t.Fatalf("torn tail not truncated: %d → %d bytes", sizeBefore.Size(), sizeAfter.Size())
	}
	// Appendable on a whole-record boundary after truncation.
	if err := log2.Append(Record{Type: recFinish, Job: "j1", State: serve.JobDone}); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, err = OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("after post-truncation append: %d records, want 3", len(records))
	}
	if len(ReplayQueueState(records)) != 0 {
		t.Fatal("finished job must not replay as queued")
	}
}

// TestClusterReplayQueueStateFolding pins the replay semantics: terminal
// jobs drop, lease records are ignored, submission order is preserved,
// duplicate submits keep the first.
func TestClusterReplayQueueStateFolding(t *testing.T) {
	req := testRequest()
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cellRes := func(i int) *sweep.CellResult {
		return &sweep.CellResult{Cell: sweep.Cell{Index: i}, Iters: 1}
	}
	records := []Record{
		{Type: recSubmit, Job: "a", Request: &norm},
		{Type: recSubmit, Job: "b", Request: &norm},
		{Type: recLease, Job: "a", Lease: "L1", Worker: "w1", Cells: []int{0, 1}},
		{Type: recComplete, Job: "a", Cell: cellRes(0)},
		{Type: recComplete, Job: "b", Cell: cellRes(3)},
		{Type: recSubmit, Job: "a", Request: &norm}, // duplicate: ignored
		{Type: recFinish, Job: "b", State: serve.JobDone},
		{Type: recSubmit, Job: "c", Request: &norm},
		{Type: recCancel, Job: "c"},
	}
	jobs := ReplayQueueState(records)
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1 (only a is unfinished)", len(jobs))
	}
	if jobs[0].OldID != "a" || len(jobs[0].Results) != 1 || jobs[0].Results[0].Iters != 1 {
		t.Fatalf("job a replayed wrong: %+v", jobs[0])
	}
}

// TestClusterHogwildNeverCachedAndCacheShortCircuitsDispatch: worker-
// executed hogwild sweeps must not populate the result cache, and a
// cache hit on a machine sweep must short-circuit lease dispatch
// entirely (no cells travel to workers for the second submission).
func TestClusterHogwildNeverCachedAndCacheShortCircuitsDispatch(t *testing.T) {
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c, WorkerConfig{Name: "cachetest"})
	go func() { _ = w.Run(ctx) }()

	cached := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h serve.Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		return h.CachedSweeps
	}

	// A hogwild sweep through the cluster: completes, never cached.
	seed, adv := uint64(7), 4
	hog := serve.SweepRequest{
		Taus: []int{2}, Workers: []int{1}, Sparsity: []float64{0.5},
		Dim: 8, Replicates: 1, Iters: 30, Seed: &seed, Adversary: &adv,
		Runtime: "hogwild",
	}
	if hog.Cacheable() {
		t.Fatal("hogwild request must not be cacheable")
	}
	job, err := srv.Submit(hog)
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, job)
	if n := cached(); n != 0 {
		t.Fatalf("hogwild sweep populated the cache (%d entries)", n)
	}

	// A machine sweep: first run travels through workers, the identical
	// resubmission is a cache hit and dispatches nothing.
	req := testRequest()
	first, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := waitResult(t, first)
	if n := cached(); n != 1 {
		t.Fatalf("machine sweep not cached (%d entries)", n)
	}
	remoteBefore, leasesBefore := c.mRemoteCells.Value(), c.mLeasesGranted.Value()
	second, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := second.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("identical machine resubmission missed the cache")
	}
	doc2, ok := second.Result()
	if !ok {
		t.Fatal("cached job has no result")
	}
	if !bytes.Equal(doc1, doc2) {
		t.Fatal("cache hit returned different bytes (must be the original computation's, timing included)")
	}
	if c.mRemoteCells.Value() != remoteBefore || c.mLeasesGranted.Value() != leasesBefore {
		t.Fatal("cache hit dispatched cells to workers; it must short-circuit lease dispatch entirely")
	}
}

// TestLeaseBatchesBalanced pins the lease split: ceil(cells/size)
// batches rounded up to a multiple of the workers, never more than the
// cells, sizes within one of each other, every incomplete cell exactly
// once in index order and no batch across a leg boundary.
func TestLeaseBatchesBalanced(t *testing.T) {
	oneLeg := func(n int) []legInfo { return []legInfo{{name: "m", offset: 0, count: n}} }
	for _, tc := range []struct {
		name             string
		legs             []legInfo
		done             []int
		size, workers    int
		batches          int
		minSize, maxSize int
	}{
		{name: "grid24 on two workers", legs: oneLeg(24), size: 8, workers: 2, batches: 4, minSize: 6, maxSize: 6},
		{name: "grid24 on one worker", legs: oneLeg(24), size: 8, workers: 1, batches: 3, minSize: 8, maxSize: 8},
		{name: "no worker yet counts as one", legs: oneLeg(24), size: 8, workers: 0, batches: 3, minSize: 8, maxSize: 8},
		{name: "grid108 on two workers", legs: oneLeg(108), size: 8, workers: 2, batches: 14, minSize: 7, maxSize: 8},
		{name: "fewer cells than workers", legs: oneLeg(3), size: 8, workers: 4, batches: 3, minSize: 1, maxSize: 1},
		{name: "recovered cells skipped", legs: oneLeg(24), done: []int{0, 5, 23}, size: 8, workers: 2, batches: 4, minSize: 5, maxSize: 6},
		{name: "two legs split apart", legs: []legInfo{{"m", 0, 12}, {"h", 12, 12}}, size: 8, workers: 2, batches: 4, minSize: 6, maxSize: 6},
		{name: "every cell recovered", legs: oneLeg(4), done: []int{0, 1, 2, 3}, size: 2, workers: 2, batches: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(map[int]sweep.CellResult)
			for _, g := range tc.done {
				done[g] = sweep.CellResult{}
			}
			got := leaseBatches(tc.legs, done, tc.size, tc.workers)
			if len(got) != tc.batches {
				t.Fatalf("%d batches, want %d: %v", len(got), tc.batches, got)
			}
			var seen []int
			for _, b := range got {
				if n := len(b.cells); n < tc.minSize || n > tc.maxSize {
					t.Errorf("batch %v has %d cells, want %d–%d", b.cells, n, tc.minSize, tc.maxSize)
				}
				leg := tc.legs[b.leg]
				for _, g := range b.cells {
					if g < leg.offset || g >= leg.offset+leg.count {
						t.Errorf("cell %d is outside its batch's leg %q", g, leg.name)
					}
				}
				seen = append(seen, b.cells...)
			}
			var want []int
			for _, leg := range tc.legs {
				for g := leg.offset; g < leg.offset+leg.count; g++ {
					if _, ok := done[g]; !ok {
						want = append(want, g)
					}
				}
			}
			if fmt.Sprint(seen) != fmt.Sprint(want) {
				t.Fatalf("batches cover %v, want every incomplete cell once in index order: %v", seen, want)
			}
		})
	}
}

// TestLeaseHeldUntilWorkArrives: a lease request that finds no work is
// held — for up to Poll, here an hour — and answers as soon as a batch
// is queued, its context ends or the coordinator closes.
func TestLeaseHeldUntilWorkArrives(t *testing.T) {
	type answer struct {
		ls  *LeaseResponse
		err error
	}
	hold := func(ctx context.Context, c *Coordinator, workerID string) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			ls, err := c.leaseWait(ctx, workerID)
			ch <- answer{ls, err}
		}()
		return ch
	}
	newCoord := func() (*Coordinator, string) {
		c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: time.Hour})
		return c, c.register(RegisterRequest{Name: "held"}).WorkerID
	}

	t.Run("work arrives", func(t *testing.T) {
		c, id := newCoord()
		defer c.Close()
		held := hold(context.Background(), c, id)
		ctx, cancel := context.WithCancel(context.Background())
		dispatched := make(chan struct{})
		go func() {
			defer close(dispatched)
			_, _ = c.DispatchSweep(ctx, "j1", testRequest(), nil, nil)
		}()
		got := <-held
		cancel()
		<-dispatched
		if got.err != nil || got.ls == nil || got.ls.JobID != "j1" || len(got.ls.Cells) != 2 {
			t.Fatalf("held request answered %+v, %v; want j1's first batch of 2", got.ls, got.err)
		}
	})
	t.Run("context canceled", func(t *testing.T) {
		c, id := newCoord()
		defer c.Close()
		ctx, cancel := context.WithCancel(context.Background())
		held := hold(ctx, c, id)
		cancel()
		if got := <-held; got.ls != nil || got.err != nil {
			t.Fatalf("canceled request answered %+v, %v; want no lease, no error", got.ls, got.err)
		}
	})
	t.Run("coordinator closed", func(t *testing.T) {
		c, id := newCoord()
		held := hold(context.Background(), c, id)
		c.Close()
		if got := <-held; got.ls != nil || got.err != nil {
			t.Fatalf("request held across Close answered %+v, %v; want no lease, no error", got.ls, got.err)
		}
	})
}

// drainAPI is the in-process transport with a report stream that
// outlives its batch: it consumes every result, then holds the stream
// open until its context ends, like a report whose ack is slow.
type drainAPI struct {
	localAPI
	reported chan struct{} // closed once the first batch is fully consumed
	once     sync.Once
	live     atomic.Int64 // report and heartbeat calls in flight
}

func (a *drainAPI) report(ctx context.Context, leaseID string, results <-chan sweep.CellResult) (ReportAck, error) {
	a.live.Add(1)
	defer a.live.Add(-1)
	for range results {
	}
	a.once.Do(func() { close(a.reported) })
	<-ctx.Done()
	for range 100 { // give a Run that does not wait every chance to return first
		runtime.Gosched()
	}
	return ReportAck{}, ctx.Err()
}

func (a *drainAPI) heartbeat(ctx context.Context, req HeartbeatRequest) error {
	a.live.Add(1)
	defer a.live.Add(-1)
	return a.localAPI.heartbeat(ctx, req)
}

// TestWorkerRunJoinsReportDrain: the worker leases its next batch while
// the previous report drains, and Run does not return before that drain
// has: no report or heartbeat of the worker is left running.
func TestWorkerRunJoinsReportDrain(t *testing.T) {
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: 30 * time.Millisecond, Poll: time.Hour})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()
	api := &drainAPI{localAPI: localAPI{c: c}, reported: make(chan struct{})}
	w := &Worker{api: api}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()
	if _, err := srv.Submit(testRequest()); err != nil {
		t.Fatal(err)
	}
	<-api.reported
	cancel()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if n := api.live.Load(); n != 0 {
		t.Fatalf("%d report/heartbeat calls still running after Run returned", n)
	}
}

// registerAPI is the in-process transport announcing each identity the
// worker registers under.
type registerAPI struct {
	localAPI
	ids chan string
}

func (a registerAPI) register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	resp, err := a.localAPI.register(ctx, req)
	a.ids <- resp.WorkerID
	return resp, err
}

// TestExpireLeasesPrunesIdleWorkers: a worker that holds no lease and has
// not been seen for a LeaseTTL is forgotten, so Status and the workers
// gauge stop counting it; if it is alive after all, its next lease call
// gets ErrUnknownWorker and it re-registers and runs the job.
func TestExpireLeasesPrunesIdleWorkers(t *testing.T) {
	const ttl = time.Minute
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: ttl, Poll: time.Hour})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()
	api := registerAPI{localAPI: localAPI{c: c}, ids: make(chan string, 4)}
	w := &Worker{api: api}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = w.Run(ctx) }()
	first := <-api.ids

	c.expireLeases(time.Now().Add(2 * ttl))
	if ws := c.Status().Workers; len(ws) != 0 {
		t.Fatalf("workers after pruning: %+v, want none", ws)
	}
	if _, _, err := c.grantLease(first); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("pruned worker's lease call: %v, want ErrUnknownWorker", err)
	}

	req := testRequest()
	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if again := <-api.ids; again == first {
		t.Fatalf("worker re-registered as %s, want a fresh identity", again)
	}
	checkCoverage(t, waitResult(t, job), req)
	if ws := c.Status().Workers; len(ws) != 1 {
		t.Fatalf("workers after re-registering: %+v, want one", ws)
	}
}
