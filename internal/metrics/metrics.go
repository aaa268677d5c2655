// Package metrics is a dependency-free instrumentation registry in the
// shape of the Prometheus client model: counters, gauges and histograms,
// optionally split by a fixed label set, registered by name and rendered
// in the Prometheus text exposition format (version 0.0.4 — the format
// every Prometheus-compatible scraper speaks). The serve layer mounts a
// Registry's Handler as GET /metrics.
//
// The package deliberately implements only what the repo needs — no
// summaries, no exemplars, no push gateway — so asgdserve keeps its
// zero-external-dependency property while still being scrapeable by any
// standard collector. Rendering is deterministic: families sort by name,
// children by label value, so two renders of the same state are
// byte-identical (the property every golden test in this repo leans on).
//
// All value types are safe for concurrent use; registration is expected
// at construction time but is also locked.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families and renders them in the
// Prometheus text format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted registration names
}

// family is one named metric: its help text, type, and children (one per
// label-value combination; the empty key for unlabeled metrics).
type family struct {
	name      string
	help      string
	kind      string // "counter" | "gauge" | "histogram"
	labelKeys []string
	mu        sync.Mutex
	children  map[string]renderable
}

// renderable emits the sample lines of one child.
type renderable interface {
	render(w *strings.Builder, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, kind string, labelKeys []string) *family {
	if name == "" || !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelKeys: labelKeys,
		children:  make(map[string]renderable),
	}
	r.families[name] = f
	i := sort.SearchStrings(r.names, name)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = name
	return f
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// child returns (creating on demand) the family member for one
// label-value tuple.
func (f *family) child(values []string, make func() renderable) renderable {
	if len(values) != len(f.labelKeys) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			f.name, len(f.labelKeys), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	return c
}

// labelString renders {k="v",…} for a child key (empty for no labels).
func (f *family) labelString(key string) string {
	if len(f.labelKeys) == 0 {
		return ""
	}
	values := strings.Split(key, "\x00")
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range f.labelKeys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// --- counter ---------------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (v < 0 panics: counters are monotone).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decreased")
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) render(w *strings.Builder, name, labels string) {
	sampleLine(w, name, labels, c.Value())
}

// --- gauge -----------------------------------------------------------------

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) render(w *strings.Builder, name, labels string) {
	sampleLine(w, name, labels, g.Value())
}

// gaugeFunc renders a callback at scrape time (for values owned
// elsewhere, like a queue length under its own lock).
type gaugeFunc struct {
	fn func() float64
}

func (g gaugeFunc) render(w *strings.Builder, name, labels string) {
	sampleLine(w, name, labels, g.fn())
}

// addFloat CAS-loops a float64 add over the atomic bit pattern.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// --- histogram -------------------------------------------------------------

// Histogram counts observations into cumulative buckets (Prometheus
// semantics: bucket le=x counts observations ≤ x; an implicit +Inf
// bucket catches everything) and tracks their sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Buckets are cumulative in the exposition; store per-bucket here and
	// accumulate at render time so Observe touches exactly one counter.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	addFloat(&h.sum, v)
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) render(w *strings.Builder, name, labels string) {
	// Splice le into the (possibly non-empty) label set.
	open := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		sampleLine(w, name+"_bucket", open(formatFloat(b)), float64(cum))
	}
	cum += h.inf.Load()
	sampleLine(w, name+"_bucket", open("+Inf"), float64(cum))
	sampleLine(w, name+"_sum", labels, h.Sum())
	sampleLine(w, name+"_count", labels, float64(cum))
}

// DefBuckets is the default latency bucket grid (seconds), the standard
// Prometheus default widened below 5ms — queue waits on an idle server
// sit in the sub-millisecond range.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60,
}

// --- registration front doors ----------------------------------------------

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	c := &Counter{}
	f.child(nil, func() renderable { return c })
	return c
}

// CounterVec is a counter family split by a fixed label set.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", labelKeys)}
}

// With returns the counter for one label-value tuple (created on first
// use; the same values always return the same counter).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() renderable { return &Counter{} }).(*Counter)
}

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	g := &Gauge{}
	f.child(nil, func() renderable { return g })
	return g
}

// NewGaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the right shape for values that already live under someone
// else's lock (queue depth, cache size).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.child(nil, func() renderable { return gaugeFunc{fn} })
}

// NewHistogram registers and returns an unlabeled histogram over the
// given ascending bucket bounds (nil ⇒ DefBuckets; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	h := newHistogram(bounds)
	f.child(nil, func() renderable { return h })
	return h
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)),
	}
}

// --- rendering -------------------------------------------------------------

// sampleLine writes one exposition sample.
func sampleLine(w *strings.Builder, name, labels string, v float64) {
	w.WriteString(name)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

// formatFloat renders a sample value ('g' shortest round-trip; Prometheus
// accepts +Inf/-Inf/NaN spellings).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render returns the full registry in the Prometheus text exposition
// format: families in name order, each with # HELP and # TYPE headers,
// children in label-value order.
func (r *Registry) Render() string {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]renderable, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			children[i].render(&b, f.name, f.labelString(k))
		}
	}
	return b.String()
}

// escapeHelp escapes backslashes and newlines per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry as a scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_, _ = w.Write([]byte(r.Render()))
	})
}
