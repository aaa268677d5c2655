package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "total jobs")
	g := r.NewGauge("queue_depth", "live queued jobs")
	c.Add(3)
	c.Inc()
	g.Add(7)
	g.Dec()
	r.NewGaugeFunc("cache_len", "cached entries", func() float64 { return 2 })

	got := r.Render()
	want := `# HELP cache_len cached entries
# TYPE cache_len gauge
cache_len 2
# HELP jobs_total total jobs
# TYPE jobs_total counter
jobs_total 4
# HELP queue_depth live queued jobs
# TYPE queue_depth gauge
queue_depth 6
`
	if got != want {
		t.Fatalf("render mismatch:\n got: %q\nwant: %q", got, want)
	}
	if c.Value() != 4 || g.Value() != 6 {
		t.Fatalf("values: counter %v gauge %v", c.Value(), g.Value())
	}
}

func TestLabeledFamiliesSortDeterministically(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("jobs_total", "jobs by state", "state")
	v.With("running").Inc()
	v.With("done").Add(2)
	v.With("done").Inc() // same tuple → same child
	got := r.Render()
	want := `# HELP jobs_total jobs by state
# TYPE jobs_total counter
jobs_total{state="done"} 3
jobs_total{state="running"} 1
`
	if got != want {
		t.Fatalf("render mismatch:\n got: %q\nwant: %q", got, want)
	}
	if r.Render() != got {
		t.Fatal("two renders of the same state differ")
	}
}

func TestHistogramBucketsSumCount(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Sum(); math.Abs(got-102.6) > 1e-9 {
		t.Fatalf("sum %v", got)
	}
	got := r.Render()
	want := `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 2
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="10"} 4
lat_seconds_bucket{le="+Inf"} 5
lat_seconds_sum 102.6
lat_seconds_count 5
`
	if got != want {
		t.Fatalf("render mismatch:\n got: %q\nwant: %q", got, want)
	}
}

// TestObserveExactBoundary: Prometheus buckets are le (≤), so an
// observation equal to a bound lands in that bound's bucket.
func TestObserveExactBoundary(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1)
	h.Observe(2)
	if h.counts[0].Load() != 1 || h.counts[1].Load() != 1 || h.inf.Load() != 0 {
		t.Fatalf("boundary observations landed in %v %v inf=%v",
			h.counts[0].Load(), h.counts[1].Load(), h.inf.Load())
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("a_total", "a").Inc()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "a_total 1") {
		t.Fatalf("body: %s", body)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h", "", []float64{1})
	v := r.NewCounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 3))
				v.With("x").Inc()
				_ = r.Render()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || v.With("x").Value() != 8000 {
		t.Fatalf("lost updates: c=%v g=%v v=%v", c.Value(), g.Value(), v.With("x").Value())
	}
	if !strings.Contains(r.Render(), "\nh_count 8000\n") {
		t.Fatalf("lost histogram observations:\n%s", r.Render())
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "")
	for name, fn := range map[string]func(){
		"duplicate":   func() { r.NewGauge("dup", "") },
		"bad name":    func() { r.NewCounter("0bad", "") },
		"empty name":  func() { r.NewCounter("", "") },
		"neg counter": func() { r.NewCounter("neg", "").Add(-1) },
		"bad buckets": func() { r.NewHistogram("hb", "", []float64{2, 1}) },
		"label arity": func() { r.NewCounterVec("lv_total", "", "a", "b").With("only-one") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
