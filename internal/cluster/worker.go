package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"asyncsgd/internal/sweep"
)

// WorkerConfig parameterizes a worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	// Ignored by NewLocalWorker.
	Coordinator string
	// Name is the human-readable worker label sent at registration
	// (hostname, pod name). Identity is the coordinator-assigned id.
	Name string
	// MaxConcurrent caps the worker's sweep-pool concurrency
	// (sweep.Spec.MaxConcurrent; 0 ⇒ the process-wide GOMAXPROCS pool,
	// shared with the other workers and runs of the process).
	MaxConcurrent int
	// HTTPClient overrides the transport (nil ⇒ a fresh default client;
	// report streams are long-lived, so no client timeout is set).
	HTTPClient *http.Client
}

// Worker is one execution node: it registers with the coordinator,
// leases cell batches, runs them through the same sweep pipeline the CLI
// uses (sweep.RunSubset over the leased leg's spec), and streams results
// back as they complete. On a 410 — its identity or lease died, usually
// because the coordinator restarted or a missed heartbeat revoked the
// lease — it abandons the batch and re-registers under a fresh identity:
// crash/rejoin needs no state handoff because the coordinator requeues
// whatever the worker never reported.
type Worker struct {
	cfg  WorkerConfig
	api  coordinatorAPI
	id   string
	ttl  time.Duration
	poll time.Duration
	// drained is closed once the last executed batch's report and
	// heartbeat have finished (nil before the first batch).
	drained chan struct{}
}

// coordinatorAPI abstracts the worker→coordinator protocol so the same
// Worker loop drives both transports: HTTP (separate processes) and
// direct calls (in-process local workers, and deterministic tests).
type coordinatorAPI interface {
	register(ctx context.Context, req RegisterRequest) (RegisterResponse, error)
	lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error)
	report(ctx context.Context, leaseID string, results <-chan sweep.CellResult) (ReportAck, error)
	heartbeat(ctx context.Context, req HeartbeatRequest) error
}

// NewWorker builds a worker that speaks HTTP to the coordinator at
// cfg.Coordinator.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator URL")
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	return &Worker{
		cfg: cfg,
		api: &httpAPI{base: strings.TrimRight(cfg.Coordinator, "/"), client: client},
	}, nil
}

// NewLocalWorker builds a worker that calls the coordinator directly —
// the in-process fleet behind `asgdserve -cluster -local-workers N`, and
// the degenerate single-node cluster that must reproduce the local
// executor's bytes.
func NewLocalWorker(c *Coordinator, cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, api: localAPI{c: c}}
}

// Run is the worker loop: register, then lease/execute/report until ctx
// is canceled. An empty lease answer asks again at once (the coordinator
// held the request for its poll interval); transient errors back off by
// that interval; identity errors re-register. Run returns only after the
// last batch's report has finished.
func (w *Worker) Run(ctx context.Context) error {
	defer w.waitDrained()
	if err := w.registerFresh(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.api.lease(ctx, LeaseRequest{WorkerID: w.id})
		switch {
		case errors.Is(err, ErrUnknownWorker):
			// The coordinator does not know us (it restarted, or we were
			// presumed dead): rejoin under a fresh identity.
			if err := w.registerFresh(ctx); err != nil {
				return err
			}
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.sleep(ctx)
		case resp != nil:
			w.execute(ctx, resp)
		}
	}
}

// waitDrained blocks until the last executed batch's report and
// heartbeat have finished.
func (w *Worker) waitDrained() {
	if w.drained != nil {
		<-w.drained
	}
}

// registerFresh (re)registers the worker, retrying transient failures
// until ctx expires. Every call yields a brand-new worker id.
func (w *Worker) registerFresh(ctx context.Context) error {
	for {
		resp, err := w.api.register(ctx, RegisterRequest{Name: w.cfg.Name})
		if err == nil {
			w.id = resp.WorkerID
			w.ttl = time.Duration(resp.LeaseTTLMS) * time.Millisecond
			if w.ttl <= 0 {
				w.ttl = 10 * time.Second
			}
			w.poll = time.Duration(resp.PollMS) * time.Millisecond
			if w.poll <= 0 {
				w.poll = 250 * time.Millisecond
			}
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.sleep(ctx)
	}
}

// sleep waits one poll interval or until ctx expires.
func (w *Worker) sleep(ctx context.Context) {
	d := w.poll
	if d <= 0 {
		d = 250 * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// execute runs one leased batch: expand the request's specs exactly as
// every other node does, run the leased leg-local cell indices through
// sweep.RunSubset, and stream each result to the coordinator as it
// completes. A heartbeat goroutine extends the lease until the report
// has finished; if the heartbeat learns the lease is dead, execution is
// canceled and the batch abandoned (the coordinator already requeued
// it). execute returns once RunSubset does, so the worker leases its
// next batch while this one's last results are still being applied;
// the report's tail drains in the background, one batch at a time.
func (w *Worker) execute(ctx context.Context, ls *LeaseResponse) {
	specs, err := ls.Request.Specs()
	if err != nil || ls.Leg < 0 || ls.Leg >= len(specs) {
		// Unexecutable lease (requests are validated at submission, so
		// this is a protocol-version mismatch at worst): abandon; the
		// lease expires and the cells requeue for a worker that can.
		return
	}
	spec := specs[ls.Leg]
	spec.MaxConcurrent = w.cfg.MaxConcurrent
	spec.OnTelemetry = nil

	runCtx, cancel := context.WithCancel(ctx)

	// Buffered to the batch size so the sweep pool never blocks on a
	// slow or dead report stream.
	results := make(chan sweep.CellResult, len(ls.Cells))
	spec.OnResult = func(r sweep.CellResult) {
		// Never report cells the canceled dispatcher skipped: an
		// abandoning worker must leave them to the requeue path, not
		// record them as permanent ErrCanceled failures in the document.
		if r.Err == sweep.ErrCanceled {
			return
		}
		results <- r
	}

	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := w.ttl / 3
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				err := w.api.heartbeat(runCtx, HeartbeatRequest{WorkerID: w.id, LeaseID: ls.LeaseID})
				if errors.Is(err, ErrLeaseRevoked) || errors.Is(err, ErrUnknownWorker) {
					cancel() // lease is dead: abandon the batch
					return
				}
			}
		}
	}()

	reportDone := make(chan struct{})
	go func() {
		defer close(reportDone)
		_, _ = w.api.report(runCtx, ls.LeaseID, results)
	}()

	_, _ = sweep.RunSubset(runCtx, spec, ls.Cells)
	close(results)
	w.waitDrained()
	drained := make(chan struct{})
	w.drained = drained
	go func() {
		defer close(drained)
		<-reportDone
		cancel()
		<-hbDone
	}()
}

// --- direct (in-process) transport ---

type localAPI struct {
	c *Coordinator
}

func (a localAPI) register(_ context.Context, req RegisterRequest) (RegisterResponse, error) {
	return a.c.register(req), nil
}

func (a localAPI) lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error) {
	return a.c.leaseWait(ctx, req.WorkerID)
}

func (a localAPI) report(ctx context.Context, leaseID string, results <-chan sweep.CellResult) (ReportAck, error) {
	var ack ReportAck
	for {
		select {
		case res, ok := <-results:
			if !ok {
				return ack, a.c.syncLog() // as handleReport: durable before acked
			}
			applied, err := a.c.applyResult(leaseID, res)
			if err != nil {
				return ack, err
			}
			if applied {
				ack.Accepted++
			} else {
				ack.Duplicates++
			}
		case <-ctx.Done():
			return ack, ctx.Err()
		}
	}
}

func (a localAPI) heartbeat(_ context.Context, req HeartbeatRequest) error {
	return a.c.heartbeat(req)
}

// --- HTTP transport ---

type httpAPI struct {
	base   string
	client *http.Client
}

func (a *httpAPI) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		if strings.Contains(string(msg), "unknown worker") {
			return ErrUnknownWorker
		}
		return ErrLeaseRevoked
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
}

func (a *httpAPI) register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := a.postJSON(ctx, "/cluster/v1/register", req, &resp)
	return resp, err
}

// lease asks for a batch. A 204 leaves the zero LeaseResponse, whose
// empty LeaseID means no work was queued while the coordinator held the
// request.
func (a *httpAPI) lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error) {
	var ls LeaseResponse
	if err := a.postJSON(ctx, "/cluster/v1/lease", req, &ls); err != nil || ls.LeaseID == "" {
		return nil, err
	}
	return &ls, nil
}

// report streams the results channel to POST /cluster/v1/report/{lease}
// as NDJSON via a pipe, so each cell leaves the worker the moment it
// completes — a worker killed mid-batch has already delivered everything
// it finished.
func (a *httpAPI) report(ctx context.Context, leaseID string, results <-chan sweep.CellResult) (ReportAck, error) {
	pr, pw := io.Pipe()
	go func() {
		enc := json.NewEncoder(pw)
		for {
			select {
			case res, ok := <-results:
				if !ok {
					pw.Close()
					return
				}
				if err := enc.Encode(res); err != nil {
					pw.CloseWithError(err)
					return
				}
			case <-ctx.Done():
				pw.CloseWithError(ctx.Err())
				return
			}
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+"/cluster/v1/report/"+leaseID, pr)
	if err != nil {
		return ReportAck{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := a.client.Do(req)
	if err != nil {
		return ReportAck{}, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var ack ReportAck
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return ReportAck{}, err
		}
		return ack, nil
	case http.StatusGone:
		return ReportAck{}, ErrLeaseRevoked
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return ReportAck{}, fmt.Errorf("cluster: report: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
}

func (a *httpAPI) heartbeat(ctx context.Context, req HeartbeatRequest) error {
	return a.postJSON(ctx, "/cluster/v1/heartbeat", req, nil)
}
