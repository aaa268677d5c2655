package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions. Every span names the op it belongs to and
// its parent span; an op's own span is the root of its tree and has
// parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
	// Slot is the worker, client or pool slot the span ran on when
	// siblings run in parallel.
	Slot int `json:"slot,omitempty"`
	// Calls and BusyNS turn the span into an aggregate: Calls calls of
	// Name, totalling BusyNS, happened inside [Start, End]. Used where
	// one span per call would cost more than the call (the oracle inside
	// a 400 000-iteration run).
	Calls  int64 `json:"calls,omitempty"`
	BusyNS int64 `json:"busy_ns,omitempty"`
	// Job is the serve job id of a server-side span; resolveJobs turns it
	// into Op and Parent once the client knows which op submitted it.
	Job string `json:"job,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the in-memory trace; spans beyond it are counted, not
// kept, so a long run cannot exhaust memory.
const maxSpans = 400_000

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// tracing switched off: every method is a no-op, so the timed pass runs
// the same code with no clock reads and no allocation.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	nextOp atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// live is a started span.
type live struct {
	tr *tracer
	s  span
}

// newOp allocates an op id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	return int(t.nextOp.Add(1))
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span; end closes and records it.
func (t *tracer) start(name string, parent, op int) *live {
	if t == nil {
		return nil
	}
	return &live{tr: t, s: span{
		ID: int(t.nextID.Add(1)), Parent: parent, Op: op, Name: name, Start: t.now(),
	}}
}

func (l *live) id() int {
	if l == nil {
		return 0
	}
	return l.s.ID
}

func (l *live) slot(n int) *live {
	if l != nil {
		l.s.Slot = n
	}
	return l
}

func (l *live) job(id string) *live {
	if l != nil {
		l.s.Job = id
	}
	return l
}

func (l *live) end() {
	if l == nil {
		return
	}
	l.s.End = l.tr.now()
	l.tr.add(l.s)
}

// add records a finished span built by the caller (aggregates, spans whose
// bounds come from timestamps taken elsewhere).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = int(t.nextID.Add(1))
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// mark returns the index the next recorded span will get, so a caller can
// later ask for the spans of its own window only.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded from mark on.
func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// resolveJobs attaches server-side spans (recorded with only a job id) to
// the op that submitted the job: Op becomes the op id and a span without a
// parent hangs off the op's root span. Spans below them inherit the op.
func (t *tracer) resolveJobs(mark int, opOf map[string]int, rootOf map[int]int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	opByID := make(map[int]int)
	for i := mark; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.Job != "" && s.Op == 0 {
			if op, ok := opOf[s.Job]; ok {
				s.Op = op
				if s.Parent == 0 {
					s.Parent = rootOf[op]
				}
			}
		}
		if s.Op != 0 {
			opByID[s.ID] = s.Op
		}
	}
	// Spans recorded below a server-side span (the cells of a dispatched
	// sweep) carry no job id of their own: they inherit the op of their
	// parent, level by level.
	for changed := true; changed; {
		changed = false
		for i := mark; i < len(t.spans); i++ {
			s := &t.spans[i]
			if s.Op == 0 {
				if op, ok := opByID[s.Parent]; ok {
					s.Op, opByID[s.ID], changed = op, op, true
				}
			}
		}
	}
}

// unattributed counts the spans that name no op: every span must belong
// to one, and all but the op's own root must name a parent.
func (t *tracer) unattributed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Op == 0 || (s.Parent == 0 && !strings.HasPrefix(s.Name, "op.")) {
			n++
		}
	}
	return n
}

// write dumps the trace as JSON.
func (t *tracer) write(path string, host hostRecord) error {
	t.mu.Lock()
	doc := struct {
		Host    hostRecord `json:"host"`
		Epoch   string     `json:"epoch"`
		Dropped int        `json:"dropped_spans"`
		Spans   []span     `json:"spans"`
	}{host, t.epoch.UTC().Format(time.RFC3339Nano), t.dropped, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// --- span arithmetic ---

// coveredNS is the part of parent's interval that the children cover:
// the length of the union of the child intervals clipped to the parent.
// Children that ran in parallel on several slots therefore count once,
// which is the "divided by the slots they ran on" of the coverage rule.
// A span's self time is its duration minus this.
func coveredNS(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// childIndex groups spans by parent id.
func childIndex(spans []span) map[int][]span {
	idx := make(map[int][]span)
	for _, s := range spans {
		idx[s.Parent] = append(idx[s.Parent], s)
	}
	return idx
}

// opCoverage is the coverage rule of the traced pass: over every op root
// span named rootName, the share of op wall time its direct children
// cover.
func opCoverage(spans []span, rootName string) float64 {
	idx := childIndex(spans)
	var wall, covered int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			wall += s.dur()
			covered += coveredNS(s, idx[s.ID])
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(covered) / float64(wall)
}

// namedDurations collects the durations (ns) of spans called name.
func namedDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}
