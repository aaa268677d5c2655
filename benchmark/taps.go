package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"asyncsgd/internal/metrics"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// Headers a traced client sends so the server-side spans of a request
// join the client's op and hang off the client's span.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// serverTaps records the server half of a job from the three seams the
// server offers without being changed: an http.Handler wrapped around its
// mux, the serve.Dispatcher it is configured with and the serve.Journal
// it reports to. Only the traced pass installs them; the timed pass runs
// the bare asgdserve shape.
type serverTaps struct {
	tr   *tracer
	next serve.Journal // the coordinator in cluster mode, else nil
	// start is the trace position when the stack was built: job ids repeat
	// from stack to stack, so resolve only looks at this stack's spans.
	start int

	mu          sync.Mutex
	opOf        map[string]int   // job → op, once the client knows
	rootOf      map[int]int      // op → its root span
	submittedAt map[string]int64 // job → trace time of JobSubmitted
	dispatchOf  map[string]int   // job → its serve.dispatch span
	dispatchEnd map[string]int64
	leaseJob    map[string]string // lease → job
}

func newServerTaps(tr *tracer) *serverTaps {
	return &serverTaps{
		tr:          tr,
		start:       tr.mark(),
		opOf:        make(map[string]int),
		rootOf:      make(map[int]int),
		submittedAt: make(map[string]int64),
		dispatchOf:  make(map[string]int),
		dispatchEnd: make(map[string]int64),
		leaseJob:    make(map[string]string),
	}
}

// bind tells the taps which op submitted a job. Nil-safe: the untraced
// client calls it too.
func (t *serverTaps) bind(job string, op, root int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.opOf[job], t.rootOf[op] = op, root
	t.mu.Unlock()
}

// resolve attaches the stack's server-side spans to their ops.
func (t *serverTaps) resolve() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tr.resolveJobs(t.start, t.opOf, t.rootOf)
}

// --- serve.Journal ---

func (t *serverTaps) JobSubmitted(id string, req serve.SweepRequest) {
	now := t.tr.now()
	t.mu.Lock()
	t.submittedAt[id] = now
	t.mu.Unlock()
	if t.next != nil {
		sp := t.tr.start("cluster.journal_submit", 0, 0).job(id)
		t.next.JobSubmitted(id, req)
		sp.end()
	}
}

func (t *serverTaps) JobFinished(id string, state string) {
	t.mu.Lock()
	end, ok := t.dispatchEnd[id]
	t.mu.Unlock()
	if ok {
		// Dispatcher returned → the server reports the job finished:
		// document encode, terminal event, cache insert.
		t.tr.add(span{Name: "serve.encode_finish", Job: id, Start: end, End: t.tr.now()})
	}
	if t.next != nil {
		sp := t.tr.start("cluster.journal_finish", 0, 0).job(id)
		t.next.JobFinished(id, state)
		sp.end()
	}
}

// dispatched brackets a DispatchSweep call: the queue wait that ended, the
// dispatch span itself.
func (t *serverTaps) dispatched(job string) *live {
	now := t.tr.now()
	t.mu.Lock()
	submitted, ok := t.submittedAt[job]
	t.mu.Unlock()
	if ok {
		t.tr.add(span{Name: "serve.queue_wait", Job: job, Start: submitted, End: now})
	}
	sp := t.tr.start("serve.dispatch", 0, 0).job(job)
	t.mu.Lock()
	t.dispatchOf[job] = sp.id()
	t.mu.Unlock()
	return sp
}

func (t *serverTaps) dispatchDone(job string, sp *live) {
	sp.end()
	t.mu.Lock()
	t.dispatchEnd[job] = t.tr.now()
	t.mu.Unlock()
}

// tracedDispatcher brackets another dispatcher (the cluster coordinator).
type tracedDispatcher struct {
	taps *serverTaps
	next serve.Dispatcher
}

func (d tracedDispatcher) DispatchSweep(ctx context.Context, jobID string, req serve.SweepRequest,
	onCell func(sweep.CellResult), onTelemetry func(sweep.TelemetrySample)) (*serve.Report, error) {
	sp := d.taps.dispatched(jobID)
	defer d.taps.dispatchDone(jobID, sp)
	return d.next.DispatchSweep(ctx, jobID, req, onCell, onTelemetry)
}

// AttachMetrics forwards the optional capability so /metrics keeps the
// coordinator's families.
func (d tracedDispatcher) AttachMetrics(reg *metrics.Registry) {
	if ma, ok := d.next.(serve.MetricsAttacher); ok {
		ma.AttachMetrics(reg)
	}
}

// tracedLocalDispatcher is the in-process backend with spans: serve's own
// default is serve.RunRequestStream, this is the same request taken apart
// by tracedRunRequest. Machine grids carry no telemetry, so that tap is
// unused.
type tracedLocalDispatcher struct{ taps *serverTaps }

func (d tracedLocalDispatcher) DispatchSweep(ctx context.Context, jobID string, req serve.SweepRequest,
	onCell func(sweep.CellResult), _ func(sweep.TelemetrySample)) (*serve.Report, error) {
	sp := d.taps.dispatched(jobID)
	defer d.taps.dispatchDone(jobID, sp)
	return tracedRunRequest(ctx, d.taps.tr, sp.id(), 0, req, onCell)
}

// --- http middleware ---

// bodyTee copies what a handler writes, for the one route whose response
// names the job a later request belongs to.
type bodyTee struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (b *bodyTee) WriteHeader(status int) {
	b.status = status
	b.ResponseWriter.WriteHeader(status)
}

func (b *bodyTee) Write(p []byte) (int, error) {
	b.buf.Write(p)
	return b.ResponseWriter.Write(p)
}

// middleware records one span per API request the workloads make. Idle
// lease polls (204) are not recorded: two workers polling every 5 ms would
// bury the trace.
func (t *serverTaps) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		path := r.URL.Path
		switch {
		case r.Method == http.MethodPost && path == "/v1/sweeps":
			t.handle("serve.handle_submit", "", parent, op, next, w, r)
		case strings.HasPrefix(path, "/v1/sweeps/") && strings.HasSuffix(path, "/events"):
			t.handle("serve.handle_events", pathPart(path, 3), parent, op, next, w, r)
		case strings.HasPrefix(path, "/v1/sweeps/") && strings.HasSuffix(path, "/result"):
			t.handle("serve.handle_result", pathPart(path, 3), parent, op, next, w, r)
		case path == "/cluster/v1/lease":
			t.handleLease(next, w, r)
		case strings.HasPrefix(path, "/cluster/v1/report/"):
			t.mu.Lock()
			job := t.leaseJob[pathPart(path, 4)]
			dispatch := t.dispatchOf[job]
			t.mu.Unlock()
			t.handle("cluster.handle_report", job, dispatch, 0, next, w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

func (t *serverTaps) handle(name, job string, parent, op int, next http.Handler, w http.ResponseWriter, r *http.Request) {
	sp := t.tr.start(name, parent, op).job(job)
	next.ServeHTTP(w, r)
	sp.end()
}

func (t *serverTaps) handleLease(next http.Handler, w http.ResponseWriter, r *http.Request) {
	tee := &bodyTee{ResponseWriter: w, status: http.StatusOK}
	start := t.tr.now()
	next.ServeHTTP(tee, r)
	end := t.tr.now()
	var grant struct {
		LeaseID string `json:"lease_id"`
		JobID   string `json:"job_id"`
	}
	if tee.status != http.StatusOK || json.Unmarshal(tee.buf.Bytes(), &grant) != nil || grant.JobID == "" {
		return // an idle poll
	}
	t.mu.Lock()
	t.leaseJob[grant.LeaseID] = grant.JobID
	dispatch := t.dispatchOf[grant.JobID]
	t.mu.Unlock()
	t.tr.add(span{Name: "cluster.handle_lease", Job: grant.JobID, Parent: dispatch, Start: start, End: end})
}

// pathPart returns the i-th slash-separated element of an absolute path
// ("/v1/sweeps/j3/events", 3 → "j3").
func pathPart(path string, i int) string {
	parts := strings.Split(path, "/")
	if i < len(parts) {
		return parts[i]
	}
	return ""
}
