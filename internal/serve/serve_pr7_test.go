package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// busyRequest is a machine sweep heavy enough to keep the executor
// occupied while a test arranges queue states behind it.
func busyRequest() SweepRequest {
	return SweepRequest{
		Taus: []int{1, 2, 4}, Workers: []int{3}, Sparsity: []float64{0.3},
		Dim: 32, Replicates: 6, Iters: 20000, Runtime: "machine",
	}
}

// waitRunning polls until the job leaves the queued state.
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.status(); st.State != JobQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("job never started")
}

// TestCancelQueuedFreesQueueSlot is the queue-compaction regression: a
// job canceled while queued must release its queue slot immediately.
// Before the fix the canceled job kept occupying its buffered-channel
// slot until the executor reached and skipped it, so a full queue of
// canceled jobs still refused new work with 429 and /healthz
// over-counted queued jobs.
func TestCancelQueuedFreesQueueSlot(t *testing.T) {
	s := New(Config{QueueDepth: 2})
	defer s.Close()

	busy, err := s.Submit(busyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, busy)
	// Its successor takes the second dispatch slot.
	next, err := s.Submit(tinyRequest(499))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, next)

	// Fill the queue behind the jobs in dispatch, then overflow it.
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(tinyRequest(uint64(500 + i)))
		if err != nil {
			t.Fatalf("filling queue slot %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := s.Submit(tinyRequest(510)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}

	// Cancel every queued job: the slots must free up at once.
	for _, j := range queued {
		if changed, err := s.Cancel(j.id); err != nil || !changed {
			t.Fatalf("cancel %s: changed=%v err=%v", j.id, changed, err)
		}
	}
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d canceled jobs still occupy queue slots", pending)
	}
	accepted, err := s.Submit(tinyRequest(511))
	if err != nil {
		t.Fatalf("submit after cancel-all must be accepted, got %v", err)
	}
	// The canceled jobs never run; the accepted one does.
	deadline := time.Now().Add(60 * time.Second)
	for accepted.status().State != JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("accepted job stuck in %s", accepted.status().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, j := range queued {
		if st := j.status(); st.State != JobCanceled {
			t.Fatalf("queued job %s reached %s", j.id, st.State)
		}
	}
}

// TestDrainTimeoutStillClosesStreamsGracefully exercises the SIGTERM
// path when the drain window expires mid-job: ListenAndServe must
// cancel the running work, let the open event stream receive its
// terminal event, and shut the listener down with a fresh timeout —
// before the fix, Shutdown received the already-expired drain context
// and aborted in-flight responses immediately.
func TestDrainTimeoutStillClosesStreamsGracefully(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- ListenAndServe(ctx, addr, Config{DrainTimeout: 50 * time.Millisecond}) }()

	base := "http://" + addr
	up := false
	for i := 0; i < 500 && !up; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !up {
		t.Fatal("server never became healthy")
	}

	// A long job (24 slow machine cells) so the 50ms drain window
	// expires while it runs; cancellation then cuts it between cells.
	long := busyRequest()
	long.Replicates = 8
	long.Iters = 60000
	body, _ := json.Marshal(long)
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Open a live event stream, then deliver the "SIGTERM".
	streamResp, err := http.Get(base + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	streamed := make(chan []byte, 1)
	streamErr := make(chan error, 1)
	go func() {
		b, err := io.ReadAll(streamResp.Body)
		streamed <- b
		streamErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // let a few cells land
	cancel()

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("ListenAndServe: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
	// The stream must have ended cleanly with a terminal event — not
	// been severed by an expired Shutdown context.
	var raw []byte
	select {
	case raw = <-streamed:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream never closed")
	}
	if err := <-streamErr; err != nil {
		t.Fatalf("event stream read error: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		t.Fatalf("empty event stream: %q", raw)
	}
	var last Event
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last stream line %q: %v", lines[len(lines)-1], err)
	}
	if last.Type != "error" && last.Type != "aggregate" {
		t.Fatalf("stream did not end in a terminal event: %+v", last)
	}
}

// hogwildTelemetryRequest builds a hogwild sweep that opts into
// telemetry sampling.
func hogwildTelemetryRequest(seed uint64, iters int) SweepRequest {
	return SweepRequest{
		Taus: []int{2}, Workers: []int{2}, Sparsity: []float64{0.4},
		Dim: 8, Replicates: 2, Iters: iters, Seed: &seed,
		Runtime: "hogwild", TelemetryMS: 1,
	}
}

// TestTelemetryEventOrderAndReplay: a subscriber sees cell and
// telemetry events strictly before the single terminal aggregate, and a
// replay of the finished stream is byte-identical to the live stream.
func TestTelemetryEventOrderAndReplay(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	// Telemetry volume is wall-clock-dependent; scale the job until at
	// least one sample lands (the 1ms period makes this all but certain
	// on the first try).
	for attempt, iters := 0, 50000; attempt < 3; attempt, iters = attempt+1, iters*4 {
		st := submit(t, hs.URL, hogwildTelemetryRequest(uint64(600+attempt), iters))
		live, err := http.Get(hs.URL + "/v1/sweeps/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		liveBytes, err := io.ReadAll(live.Body)
		live.Body.Close()
		if err != nil {
			t.Fatal(err)
		}

		cells, telemetry := 0, 0
		terminal := false
		for _, line := range bytes.Split(bytes.TrimSpace(liveBytes), []byte("\n")) {
			var e Event
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("bad event line %q: %v", line, err)
			}
			if terminal {
				t.Fatalf("event of type %q after the terminal event", e.Type)
			}
			switch e.Type {
			case "cell":
				cells++
				if e.Cell == nil {
					t.Fatal("cell event without a cell payload")
				}
			case "telemetry":
				telemetry++
				if e.Telemetry == nil {
					t.Fatal("telemetry event without a payload")
				}
				if e.Telemetry.Index < 0 || e.Telemetry.Index >= st.Cells {
					t.Fatalf("telemetry sample for out-of-range cell %d", e.Telemetry.Index)
				}
			case "aggregate":
				terminal = true
			case "error":
				t.Fatalf("job failed: %+v", e)
			default:
				t.Fatalf("unknown event type %q", e.Type)
			}
		}
		if !terminal {
			t.Fatal("stream ended without a terminal event")
		}
		if cells != st.Cells {
			t.Fatalf("streamed %d cell events, want %d", cells, st.Cells)
		}
		if telemetry == 0 {
			continue // job finished between ticks; retry bigger
		}

		// Late subscriber: byte-identical replay.
		replay, err := http.Get(hs.URL + "/v1/sweeps/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		replayBytes, err := io.ReadAll(replay.Body)
		replay.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(liveBytes, replayBytes) {
			t.Fatal("replayed stream differs from the live stream")
		}
		return
	}
	t.Fatal("no telemetry sample in 3 attempts of growing size")
}

// parseMetrics reads the Prometheus text format into a map from
// "name{labels}" to value, skipping comment lines.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	m := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m
}

// TestMetricsAgreeWithHealthAndFinishedOrder drives concurrent load
// while polling /metrics, then cross-checks the settled metrics against
// /healthz and the finished order — the three observability surfaces must
// tell one story.
func TestMetricsAgreeWithHealthAndFinishedOrder(t *testing.T) {
	s, hs := newTestServer(t, Config{QueueDepth: 32})

	// Poll /metrics while jobs run: the endpoint must be safe under
	// concurrent mutation (the race job enforces this with -race).
	stopPolling := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPolling:
				return
			default:
				resp, err := http.Get(hs.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const n = 5
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := submit(t, hs.URL, tinyRequest(uint64(700+i)))
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if st := waitDone(t, hs.URL, id); st.State != JobDone {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
	// One duplicate: a cache hit.
	dup := submit(t, hs.URL, tinyRequest(700))
	if !dup.Cached {
		t.Fatal("duplicate spec must hit the cache")
	}
	close(stopPolling)
	pollWG.Wait()

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	met := parseMetrics(t, string(body))

	var h Health
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()

	finished := len(finishedOrder(s))
	checks := []struct {
		metric string
		want   float64
	}{
		{"asgdserve_queue_depth", float64(h.Queued)},
		{"asgdserve_queue_capacity", float64(h.QueueDepth)},
		{"asgdserve_cache_entries", float64(h.CachedSweeps)},
		{"asgdserve_jobs_running", float64(h.Running)},
		{`asgdserve_jobs_finished_total{state="done"}`, float64(finished)},
		{`asgdserve_submissions_total{outcome="accepted"}`, n},
		{`asgdserve_submissions_total{outcome="cache_hit"}`, 1},
		{"asgdserve_cache_hits_total", 1},
		{"asgdserve_cells_completed_total", n * 2}, // tinyRequest = 2 cells
		{"asgdserve_queue_wait_seconds_count", n},  // cache hits never wait
		{"asgdserve_cell_seconds_count", n * 2},
		{"asgdserve_event_subscribers", 0},
	}
	for _, c := range checks {
		got, ok := met[c.metric]
		if !ok {
			t.Errorf("metric %s missing from /metrics", c.metric)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.metric, got, c.want)
		}
	}
	if met["asgdserve_queue_wait_seconds_sum"] < 0 {
		t.Error("negative queue wait sum")
	}
}

// TestCachedEventsAreCopied (white-box): the cache entry must own its
// event slice rather than alias the finished job's live one — the entry
// outlives the job and is shared by every future cache-hit job.
func TestCachedEventsAreCopied(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	job, err := s.Submit(tinyRequest(801))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for job.status().State != JobDone {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The put happens after the terminal transition; wait for it.
	var entry *cached
	for time.Now().Before(deadline) {
		s.mu.Lock()
		if hit, ok := s.cache.get(job.key); ok {
			entry = hit
		}
		s.mu.Unlock()
		if entry != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if entry == nil {
		t.Fatal("finished cacheable job never reached the cache")
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if len(entry.events) != len(job.events) || len(entry.events) == 0 {
		t.Fatalf("cached %d events, job has %d", len(entry.events), len(job.events))
	}
	if &entry.events[0] == &job.events[0] {
		t.Fatal("cache entry aliases the job's live event slice")
	}
}

// TestJobsListingCarriesFinishedOrder: /v1/jobs exposes completion
// order so HTTP clients (the cluster package's TestLoad) can verify
// FIFO fairness without library access.
func TestJobsListingCarriesFinishedOrder(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		st := submit(t, hs.URL, tinyRequest(uint64(900+i)))
		waitDone(t, hs.URL, st.ID)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Jobs     []JobStatus `json:"jobs"`
		Finished []string    `json:"finished"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want := finishedOrder(s)
	if fmt.Sprint(doc.Finished) != fmt.Sprint(want) {
		t.Fatalf("finished %v, want %v", doc.Finished, want)
	}
	if len(doc.Finished) != 3 {
		t.Fatalf("finished %v, want 3 entries", doc.Finished)
	}
}
