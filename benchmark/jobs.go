package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asyncsgd/internal/cluster"
	"asyncsgd/internal/serve"
)

// The job workloads' fixed shape.
const (
	jobClients     = 2
	clusterWorkers = 2
	// clusterPoll replaces the coordinator's default 250 ms idle poll.
	// With the default, two back-to-back runs of the same code differed by
	// 60 % in jobs/s depending on the phase the workers' idle timers
	// happened to have; 5 ms makes the workload repeat. The default-poll
	// lag is measured separately (cluster.idle_pickup_ms_default_poll).
	clusterPoll = 5 * time.Millisecond
	// maxLostEvents is how many cell events a jobs_cluster stream may lack
	// (see toleratedLoss): each worker reports one cell at a time, so when
	// a job's last cell closes it, at most one cell per other worker is
	// still on its way to the stream.
	maxLostEvents = clusterWorkers - 1
)

// grid24 is the job workloads' request: 24 cells of 100 iterations. A
// distinct seed per job keeps the result cache from ever answering.
func grid24(seed uint64) serve.SweepRequest {
	return serve.SweepRequest{
		Taus:       []int{1, 2, 4, 8},
		Workers:    []int{1, 2},
		Sparsity:   []float64{0.3},
		Replicates: 3,
		Iters:      100,
		Seed:       &seed,
	}
}

// stack is a running job server: serve.New behind loopback HTTP, and in
// cluster mode the coordinator with its journal and two HTTP workers —
// what `asgdserve [-cluster -cluster-log F]` plus two `asgdworker`
// processes assemble, in one process.
type stack struct {
	srv    *serve.Server
	coord  *cluster.Coordinator
	http   *http.Server
	served chan struct{}
	base   string
	client *http.Client
	dir    string // holds the journal; removed on close
	log    string // journal path ("" without one)
	// journal is what the job log held when close reopened it.
	journal journalStats

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	transports  []*http.Transport

	taps *serverTaps // nil unless tracing
}

type stackOpts struct {
	cluster bool
	journal bool          // cluster only
	workers int           // HTTP workers to start
	poll    time.Duration // 0: the coordinator's default
	tr      *tracer
}

func newStack(e *env, o stackOpts) (*stack, error) {
	st := &stack{served: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	cfg := serve.Config{}
	if o.tr != nil {
		st.taps = newServerTaps(o.tr)
		cfg.Journal = st.taps
	}
	if o.cluster {
		ccfg := cluster.Config{Poll: o.poll}
		if o.journal {
			dir, err := os.MkdirTemp(e.outDir, "journal-")
			if err != nil {
				return nil, fmt.Errorf("journal directory: %w", err)
			}
			st.dir, st.log = dir, filepath.Join(dir, "joblog")
			if st.coord, err = cluster.NewCoordinatorWithLog(ccfg, st.log); err != nil {
				return nil, err
			}
		} else {
			st.coord = cluster.NewCoordinator(ccfg)
		}
		cfg.Dispatcher, cfg.Journal = st.coord, st.coord
		if st.taps != nil {
			st.taps.next = st.coord
			cfg.Dispatcher, cfg.Journal = tracedDispatcher{st.taps, st.coord}, st.taps
		}
	} else if st.taps != nil {
		cfg.Dispatcher = tracedLocalDispatcher{st.taps}
	}
	st.srv = serve.New(cfg)
	var handler http.Handler = st.srv.Handler()
	if st.coord != nil {
		if _, err := st.coord.Recover(st.srv); err != nil {
			return nil, err
		}
		handler = st.coord.Mount(handler)
	}
	if st.taps != nil {
		handler = st.taps.middleware(handler)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	st.base = "http://" + ln.Addr().String()
	st.http = &http.Server{Handler: handler}
	go func() {
		defer close(st.served)
		_ = st.http.Serve(ln) // returns ErrServerClosed on close
	}()
	st.client = &http.Client{Transport: st.transport()}

	ctx, cancel := context.WithCancel(context.Background())
	st.stopWorkers = cancel
	for i := 0; i < o.workers; i++ {
		// Each worker gets its own transport, as each asgdworker process
		// has, and one pool slot: two workers never make more than two
		// runnable threads.
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator:   st.base,
			Name:          "bench-" + strconv.Itoa(i),
			MaxConcurrent: 1,
			HTTPClient:    &http.Client{Transport: st.transport()},
		})
		if err != nil {
			return nil, err
		}
		st.workers.Add(1)
		go func() {
			defer st.workers.Done()
			_ = w.Run(ctx) // returns ctx.Err() on close
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for o.workers > 0 && len(st.coord.Status().Workers) < o.workers {
		if time.Now().After(deadline) {
			return nil, errors.New("cluster workers did not register within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	ok = true
	return st, nil
}

func (st *stack) transport() *http.Transport {
	t := &http.Transport{MaxIdleConnsPerHost: 8}
	st.transports = append(st.transports, t)
	return t
}

// close stops every goroutine the stack started and waits for each.
func (st *stack) close() {
	if st.stopWorkers != nil {
		st.stopWorkers()
		st.workers.Wait()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.coord != nil {
		st.coord.Close()
	}
	if st.http != nil {
		_ = st.http.Close()
		<-st.served
	}
	for _, t := range st.transports {
		t.CloseIdleConnections()
	}
	if st.dir != "" {
		// Every writer has stopped: read the journal back, then remove it.
		st.journal = readJournal(st.log)
		_ = os.RemoveAll(st.dir)
	}
}

// jobsInst is jobs_serve or jobs_cluster: two closed-loop HTTP clients.
type jobsInst struct {
	name  string
	st    *stack
	seed  uint64
	seq   atomic.Int64
	tr    *tracer
	cells int
	// request builds the job body for a seed (grid24 unless a probe
	// swaps it).
	request func(seed uint64) serve.SweepRequest

	docs keptDocs
}

func setupJobs(e *env, seed uint64, clustered bool) (instance, error) {
	o := stackOpts{cluster: clustered, journal: clustered, tr: e.tr}
	name := "jobs_serve"
	if clustered {
		o.workers, o.poll, name = clusterWorkers, clusterPoll, "jobs_cluster"
	}
	st, err := newStack(e, o)
	if err != nil {
		return nil, err
	}
	j := &jobsInst{name: name, st: st, seed: seed, tr: e.tr, cells: grid24Cells, request: grid24}
	if err := warmUp(j); err != nil {
		st.close()
		return nil, err
	}
	return j, nil
}

func (j *jobsInst) clients() int    { return jobClients }
func (j *jobsInst) finish() []error { return j.docs.verify() }
func (j *jobsInst) close()          { j.st.close() }

// event is the part of a serve.Event the client checks.
type event struct {
	Type string `json:"type"`
}

// op is one job as a client runs it: POST the sweep, follow its event
// stream to the terminal event, GET the result document.
func (j *jobsInst) op(client int) sample {
	k := int(j.seq.Add(1))
	req := j.request(mixSeed(j.seed, client, k))
	opID := j.tr.newOp()
	root := j.tr.start("op."+j.name, 0, opID).slot(client)
	defer root.end()

	var s sample
	fail := func(format string, args ...any) sample {
		s.err = fmt.Errorf(j.name+": "+format, args...)
		return s
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fail("encoding request: %w", err)
	}

	t0 := time.Now()
	sub := j.tr.start("serve.http_submit", root.id(), opID)
	resp, err := j.do(http.MethodPost, "/v1/sweeps", body, opID, sub.id())
	if err != nil {
		sub.end()
		return fail("POST /v1/sweeps: %w", err)
	}
	var status serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&status)
	drain(resp)
	sub.end()
	s.submitNS = int64(time.Since(t0))
	if resp.StatusCode != http.StatusAccepted {
		s.rejected = resp.StatusCode == http.StatusTooManyRequests
		return fail("POST /v1/sweeps answered %s", resp.Status)
	}
	if err != nil {
		return fail("decoding job status: %w", err)
	}
	j.st.taps.bind(status.ID, opID, root.id())

	ev := j.tr.start("serve.events_stream", root.id(), opID)
	resp, err = j.do(http.MethodGet, "/v1/sweeps/"+status.ID+"/events", nil, opID, ev.id())
	if err != nil {
		ev.end()
		return fail("GET events: %w", err)
	}
	cellEvents, terminal, after := 0, "", 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if s.firstEventNS == 0 {
			s.firstEventNS = int64(time.Since(t0))
		}
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			drain(resp)
			ev.end()
			return fail("decoding event: %w", err)
		}
		switch {
		case terminal != "":
			after++
		case e.Type == "cell":
			cellEvents++
		case e.Type == "aggregate" || e.Type == "error":
			terminal = e.Type
		}
	}
	err = sc.Err()
	drain(resp)
	ev.end()
	if err != nil {
		return fail("reading events: %w", err)
	}
	if terminal != "aggregate" || after != 0 {
		return fail("event stream ended with %q and %d events after it, want one aggregate event last", terminal, after)
	}

	res := j.tr.start("serve.http_result", root.id(), opID)
	resp, err = j.do(http.MethodGet, "/v1/sweeps/"+status.ID+"/result", nil, opID, res.id())
	if err != nil {
		res.end()
		return fail("GET result: %w", err)
	}
	doc, err := io.ReadAll(resp.Body)
	drain(resp)
	res.end()
	s.wallNS = int64(time.Since(t0))
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("GET result answered %s (%v)", resp.Status, err)
	}

	var rep serve.Report
	if err := json.Unmarshal(doc, &rep); err != nil {
		return fail("decoding result document: %w", err)
	}
	s.lostEvents = toleratedLoss(j.st.coord != nil, cellEvents, j.cells)
	cellEvents += s.lostEvents
	if s.cells, s.updates, err = checkReport(&rep, cellEvents, j.cells); err != nil {
		return fail("%w", err)
	}
	j.docs.keep(k, keptDoc{req: req, doc: doc})
	return s
}

// toleratedLoss is the one exception to "exactly 24 cell events": how many
// of the events a stream lacks are counted instead of failing the op.
//
// It covers a defect of the coordinator this workload found, about once in
// 1500 jobs: applyResult calls onCell after unlocking, so the report stream
// that delivers a job's last cell can close the job while the other
// worker's stream is still between recording its cell and announcing it,
// and serve drops events of a finished job. The document is complete
// (checked per op, and byte for byte in finish); the stream lacks that one
// cell event. The benchmark may not change the program, and a workload
// must not fail, so a loss the race explains — at most maxLostEvents of a
// job — is counted (cluster.lost_cell_events, which a fix returns to 0 and
// -compare flags when it rises). Any larger shortfall fails the op, as
// every shortfall does on jobs_serve, whose events are serialized.
func toleratedLoss(clustered bool, cellEvents, want int) int {
	if lost := want - cellEvents; clustered && lost > 0 && lost <= maxLostEvents {
		return lost
	}
	return 0
}

// do sends one request; in the traced pass it tells the server-side taps
// which op and client span the request belongs to.
func (j *jobsInst) do(method, path string, body []byte, op, parent int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, j.st.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if j.tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(op))
		req.Header.Set(spanHeader, strconv.Itoa(parent))
	}
	return j.st.client.Do(req)
}

// drain empties and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// journalStats is what reopening the cluster job log says the grid24 jobs
// of a run cost (the 108-cell probe jobs are left out).
type journalStats struct {
	jobs, appends, leases int
	bytes                 int64
	err                   error
}

// readJournal reopens a closed job log and sums the records of every job
// that completed exactly 24 cells. Record sizes are re-derived by encoding
// each record again; the total is held against the file size.
func readJournal(path string) journalStats {
	var js journalStats
	fi, err := os.Stat(path)
	if err != nil {
		js.err = err
		return js
	}
	log, records, err := cluster.OpenJobLog(path)
	if err != nil {
		js.err = err
		return js
	}
	js.err = log.Close()
	type perJob struct {
		appends, leases, completes int
		bytes                      int64
	}
	byJob := make(map[string]*perJob)
	var total int64
	for _, r := range records {
		pj := byJob[r.Job]
		if pj == nil {
			pj = &perJob{}
			byJob[r.Job] = pj
		}
		payload, err := json.Marshal(r)
		if err != nil {
			js.err = err
			return js
		}
		size := int64(4 + len(payload)) // length prefix + payload
		total += size
		pj.bytes += size
		pj.appends++
		switch r.Type {
		case "lease":
			pj.leases++
		case "complete":
			pj.completes++
		}
	}
	if total != fi.Size() && js.err == nil {
		js.err = fmt.Errorf("job log is %d bytes, its records re-encode to %d", fi.Size(), total)
	}
	for _, pj := range byJob {
		if pj.completes == grid24Cells {
			js.jobs++
			js.appends += pj.appends
			js.leases += pj.leases
			js.bytes += pj.bytes
		}
	}
	return js
}
