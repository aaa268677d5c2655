package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncsgd/internal/serve"
)

// TestLoad drives concurrent HTTP submitters and streaming subscribers
// against a depth-4 queue, plain and coordinator-backed, and checks the
// four service contracts that hold under load: every job is accepted
// (429s are retried, never lost), every event stream is cell/telemetry
// events then one terminal event, a replayed stream is byte-identical
// to the live one, and jobs finish in submission order. The 429 count
// is timing-dependent and deliberately not asserted.
func TestLoad(t *testing.T) {
	const jobs, submitters, subscribers = 24, 4, 2
	for _, tc := range []struct {
		name        string
		runtime     string
		telemetryMS int
		cluster     bool
	}{
		{name: "machine", runtime: "machine"},
		{name: "hogwild-telemetry", runtime: "hogwild", telemetryMS: 5},
		{name: "cluster", runtime: "machine", cluster: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serve.Config{QueueDepth: 4}
			var c *Coordinator
			if tc.cluster {
				c = NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond})
				defer c.Close()
				cfg.Dispatcher, cfg.Journal = c, c
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				for i := range 2 {
					w := NewLocalWorker(c, WorkerConfig{Name: fmt.Sprintf("load-%d", i)})
					go func() { _ = w.Run(ctx) }()
				}
			}
			srv := serve.New(cfg)
			defer srv.Close()
			handler := srv.Handler()
			if c != nil {
				handler = c.Mount(handler)
			}
			ts := httptest.NewServer(handler)
			defer ts.Close()

			var (
				mu           sync.Mutex
				accepted     []string
				telemetry    atomic.Int64
				ids          = make(chan string, jobs)
				subWG, pubWG sync.WaitGroup
			)
			for range subscribers {
				subWG.Add(1)
				go func() {
					defer subWG.Done()
					for id := range ids {
						events := ts.URL + "/v1/sweeps/" + id + "/events"
						live := get(t, events)
						v, n := streamOrderViolations(live)
						telemetry.Add(int64(n))
						if v != 0 {
							t.Errorf("%s: %d stream-order violations in\n%s", id, v, live)
						}
						if !bytes.Equal(live, get(t, events)) {
							t.Errorf("%s: the replayed stream differs from the live one", id)
						}
					}
				}()
			}
			for w := range submitters {
				pubWG.Add(1)
				go func() {
					defer pubWG.Done()
					for i := w; i < jobs; i += submitters {
						seed := 97 + uint64(i)
						id, err := submitRetrying(ts.URL, serve.SweepRequest{
							Taus: []int{1}, Workers: []int{2}, Sparsity: []float64{0.3},
							Dim: 8, Replicates: 1, Iters: 60, Seed: &seed,
							Runtime: tc.runtime, TelemetryMS: tc.telemetryMS,
						})
						if err != nil {
							t.Errorf("job %d: %v", i, err)
							continue
						}
						mu.Lock()
						accepted = append(accepted, id)
						mu.Unlock()
						ids <- id
					}
				}()
			}
			pubWG.Wait()
			close(ids)
			subWG.Wait()

			// A job's terminal event lands just before the server lists
			// it as finished, so wait for the listing to catch up.
			var listing struct{ Finished []string }
			for deadline := time.Now().Add(30 * time.Second); len(listing.Finished) < len(accepted) && time.Now().Before(deadline); {
				if err := json.Unmarshal(get(t, ts.URL+"/v1/jobs"), &listing); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}
			if len(accepted) != jobs {
				t.Errorf("accepted %d of %d jobs", len(accepted), jobs)
			}
			if n := fifoInversions(listing.Finished, accepted); n != 0 {
				t.Errorf("%d FIFO inversions: accepted %v, finished %v", n, accepted, listing.Finished)
			}
			if tc.telemetryMS > 0 && telemetry.Load() == 0 {
				t.Error("no telemetry event arrived")
			}
		})
	}
}

// submitRetrying POSTs one sweep, sleeping and retrying while the queue
// sheds it with 429, and returns the accepted job id.
func submitRetrying(base string, req serve.SweepRequest) (string, error) {
	body, _ := json.Marshal(req) // a SweepRequest always encodes
	for tries := 0; tries < 2000; tries++ {
		resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return "", err
		case resp.StatusCode == http.StatusTooManyRequests:
			time.Sleep(5 * time.Millisecond)
		case resp.StatusCode != http.StatusAccepted:
			return "", fmt.Errorf("submit: %s: %s", resp.Status, payload)
		default:
			var st serve.JobStatus
			return st.ID, json.Unmarshal(payload, &st)
		}
	}
	return "", fmt.Errorf("still shed with 429 after 2000 tries")
}

// get returns the body of a 200 response to GET url.
func get(t *testing.T, url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: %s, %v", url, resp.Status, err)
	}
	return b
}

// streamOrderViolations counts the breaches of the event-order contract
// in one stream (any cell/telemetry events, then exactly one
// aggregate/error event, which is last) and its telemetry events.
func streamOrderViolations(stream []byte) (violations, telemetry int) {
	terminal := false
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var e serve.Event
		_ = json.Unmarshal(line, &e) // a line that does not parse has no type
		if terminal {
			violations++
		}
		switch e.Type {
		case "cell":
		case "telemetry":
			telemetry++
		case "aggregate", "error":
			terminal = true
		default:
			violations++
		}
	}
	if !terminal {
		violations++
	}
	return violations, telemetry
}

// fifoInversions counts the FIFO breaches in a completion order
// restricted to the accepted ids: one per accepted id that finishes
// after a later-submitted one, and one per accepted id that never
// finishes. Ids are "j<n>" in submission order, so they compare as
// numbers; ids not accepted here are ignored.
func fifoInversions(finished, accepted []string) int {
	missing := make(map[string]bool, len(accepted))
	for _, id := range accepted {
		missing[id] = true
	}
	inversions, prev := 0, -1
	for _, id := range finished {
		if !missing[id] {
			continue
		}
		delete(missing, id)
		n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
		if err != nil || n <= prev {
			inversions++
			continue
		}
		prev = n
	}
	return inversions + len(missing)
}

// TestFIFOInversions: planted inversions and missing ids are counted.
func TestFIFOInversions(t *testing.T) {
	accepted := []string{"j8", "j9", "j10", "j11"}
	for _, tc := range []struct {
		name     string
		finished []string
		want     int
	}{
		{"in order", []string{"j8", "j9", "j10", "j11"}, 0},
		{"swapped pair", []string{"j8", "j10", "j9", "j11"}, 1},
		{"missing id", []string{"j8", "j9", "j11"}, 1},
		{"foreign ids interleaved", []string{"j1", "j8", "j20", "j9", "j3", "j10", "j11", "j2"}, 0},
	} {
		if got := fifoInversions(tc.finished, accepted); got != tc.want {
			t.Errorf("%s: fifoInversions(%v) = %d, want %d", tc.name, tc.finished, got, tc.want)
		}
	}
}
