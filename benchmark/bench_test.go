package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/vec"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 100}, {19, 100}, // not even the median has ten samples beyond it
		{20, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {500, 98},
		{1000, 99}, {2000, 99.5}, {10000, 99.9},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		got := tailPercentile(xs)
		if got.Percentile != c.want || got.Samples != c.n {
			t.Errorf("n=%d: percentile %g of %d samples, want %g of %d", c.n, got.Percentile, got.Samples, c.want, c.n)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if c.want < 100 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported p%g", c.n, beyond, got.Percentile)
		}
	}
}

// TestQuartiles pins the spread statistic to the driver's:
// statistics.quantiles(xs, n=4) of these values gives 2.5, 5, 7.5;
// 1, 2, 3; and 92.5, 100, 107.5.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 5, 3, 7, 2, 8, 4, 6})
	if q1 != 2.5 || q3 != 7.5 {
		t.Errorf("quartiles of 1..9: %g, %g; want 2.5, 7.5", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3: %g, %g; want 1, 3", q1, q3)
	}
	if got := relSpread([]float64{90, 100, 110, 95, 105}); got != 0.15 {
		t.Errorf("relSpread %g, want (107.5−92.5)/100", got)
	}
	if got := relSpread([]float64{5}); got != 0 {
		t.Errorf("relSpread of one value %g, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50},   // overlaps the first: parallel slots count once
		{Parent: 1, Start: 70, End: 120},  // runs past the parent: clipped
		{Parent: 1, Start: 200, End: 300}, // outside: ignored
	}
	if got := coveredNS(parent, children); got != 70 {
		t.Errorf("covered %d ns, want 70 (10–50 and 70–100)", got)
	}
	if got := parent.dur() - coveredNS(parent, children); got != 30 {
		t.Errorf("self time %d ns, want 30", got)
	}
	if got := coveredNS(parent, nil); got != 0 {
		t.Errorf("no children cover %d ns, want 0", got)
	}
	spans := append([]span{{ID: 1, Name: "op.x", Start: 0, End: 100}}, children...)
	if got := opCoverage(spans, "op.x"); got != 0.7 {
		t.Errorf("op coverage %g, want 0.7", got)
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricAndWorkloadNames(t *testing.T) {
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRe)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	setup := false
	for _, d := range endToEndDefs {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want in (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
	}
	if !setup {
		t.Error("end-to-end metrics need setup_s with unit s, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRe)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayerDefs {
		check(d.Name)
	}
	// -compare's pairs: known names, each once, a bound the contract allows,
	// set-up time gated on every workload.
	pairs := make(map[gate]bool)
	for _, g := range gates {
		if _, ok := workloadByName(g.workload); !ok {
			t.Errorf("gate %+v names no workload", g)
		}
		endToEndDef(g.metric) // panics on an unknown name
		if g.bound <= 0 || g.bound > 0.25 {
			t.Errorf("gate %+v: bound outside (0, 0.25]", g)
		}
		key := gate{workload: g.workload, metric: g.metric}
		if pairs[key] {
			t.Errorf("gate %+v is listed twice", g)
		}
		pairs[key] = true
	}
	for _, w := range workloads {
		if !pairs[gate{workload: w.name, metric: "setup_s"}] {
			t.Errorf("%s: setup_s is not gated", w.name)
		}
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables the
// benchmark emits from: same workloads with the same rationale, same
// metrics, units, directions and bounds, and no key beyond the contract's.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("BENCHMARK.json has the extra key %q", key)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", doc.Paths)
	}
	if strings.Join(doc.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command %v", doc.Command)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q / %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []map[string]any, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i, d := range want {
			exp := map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better}
			if bounded {
				exp["bound"] = d.Bound
			}
			g := got[i]
			if len(g) != len(exp) {
				t.Errorf("%s %d: keys %v, want exactly %v", kind, i, g, exp)
				continue
			}
			for k, v := range exp {
				if g[k] != v {
					t.Errorf("%s %s: %s is %v in BENCHMARK.json, %v in the benchmark", kind, d.Name, k, g[k], v)
				}
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndDefs, true)
	same("per_layer", doc.PerLayer, perLayerDefs, false)
}

func sparseOracle(t *testing.T) *grad.SparseLeastSquares {
	t.Helper()
	r := rng.New(3)
	ds, err := data.GenLinear(data.LinearConfig{Samples: 48, Dim: 8, NoiseStd: 0.05}, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.SparsifyRows(ds, 0.5, r); err != nil {
		t.Fatal(err)
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sls
}

// TestOracleDecorator: a runtime picks its pipeline by asserting
// grad.SparseOracle, on the oracle and on every CloneFor of it, so the
// decorator has to keep the capability exactly where the base has it —
// and must not invent it where the base lacks it.
func TestOracleDecorator(t *testing.T) {
	tr := newTracer()
	tap := &oracleTap{tr: tr, every: 1}
	wrapped := tap.wrap(sparseOracle(t), -1)
	for i, o := range []grad.Oracle{wrapped, wrapped.CloneFor(0), wrapped.CloneFor(1).CloneFor(2)} {
		so, ok := grad.AsSparse(o)
		if !ok {
			t.Fatalf("oracle %d lost grad.SparseOracle", i)
		}
		if _, ok := o.(*tracedSparseOracle); !ok {
			t.Fatalf("oracle %d is %T: CloneFor dropped the decorator", i, o)
		}
		r := rng.New(uint64(i))
		x := vec.Constant(8, 0.5)
		var g vec.Sparse
		support := so.PlanSparse(r)
		vals := make([]float64, len(support))
		for k, j := range support {
			vals[k] = x[j]
		}
		so.GradSparseAt(&g, vals, r)
	}
	if calls, busy := tap.busy(); calls != 3 || busy <= 0 {
		t.Errorf("decorator saw %d calls, %g ns busy; want 3 calls and some time", calls, busy)
	}
	if tap.optimumAt.Load() != 0 {
		t.Error("Optimum mark set before any Optimum call")
	}
	wrapped.Optimum()
	if tap.optimumAt.Load() == 0 {
		t.Error("Optimum call left no mark")
	}

	dense := (&oracleTap{tr: tr, every: 1}).wrap(newDiagQuadratic(16, rng.New(1)), -1)
	if _, ok := grad.AsSparse(dense); ok {
		t.Error("decorating a dense oracle made it claim grad.SparseOracle")
	}
	if _, ok := grad.AsSparse(dense.CloneFor(0)); ok {
		t.Error("a dense oracle's decorated clone claims grad.SparseOracle")
	}
}

// TestSmokeEveryWorkload runs one op of each workload through set-up, the
// per-op checks and the out-of-window identity check.
func TestSmokeEveryWorkload(t *testing.T) {
	e := &env{outDir: t.TempDir()}
	for _, w := range workloads {
		inst, err := w.setup(e, 42)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		win := runWindow(inst, 0, 1)
		r := summarize(win, inst, 0)
		inst.close()
		for _, err := range r.errs {
			t.Errorf("%s: %v", w.name, err)
		}
		if r.Attempted != 1 || r.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed; want 1 and 0", w.name, r.Attempted, r.Failed)
		}
		if r.UpdatesPerS <= 0 || r.CellsPerS <= 0 || r.JobMsP50 <= 0 {
			t.Errorf("%s: an end-to-end metric is not positive: %+v", w.name, r.endToEnd)
		}
	}
}

// TestTracedGridOp: the traced execution of a request is serve.RunRequest
// taken apart, so its document must pass the same identity check, its
// spans must account for the op, and each must name its op and parent.
func TestTracedGridOp(t *testing.T) {
	tr := newTracer()
	inst, err := setupGridCLI(&env{outDir: t.TempDir(), tr: tr}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	for _, err := range inst.finish() {
		t.Error(err)
	}
	spans := tr.since(0)
	if cov := opCoverage(spans, "op.grid_cli"); cov < 0.85 {
		t.Errorf("child spans cover %.3f of the op, want ≥ 0.85", cov)
	}
	if n := len(namedDurations(spans, "sweep.cell")); n != defaultGridCells {
		t.Errorf("%d cell spans, want %d", n, defaultGridCells)
	}
	if n := tr.unattributed(); n != 0 {
		t.Errorf("%d spans name no op or parent", n)
	}
}

// TestDriverResultObject runs the command as the driver does and checks
// the last stdout line: exactly the contract's keys, every end-to-end
// metric and nothing else.
func TestDriverResultObject(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"--workload", "jobs_serve", "--seed", "9", "--seconds", "1", "--trace", "0", "-out", t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	if len(raw) != 4 {
		t.Errorf("result object has keys %v, want correct, attempted, failed, metrics", raw)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	if len(res.Metrics) != len(endToEndDefs) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(endToEndDefs))
	}
	for _, d := range endToEndDefs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("metric %s: %+v (present %v)", d.Name, m, ok)
		}
	}
}

// TestToleratedLoss: jobs_cluster may lack the one cell event per job the
// coordinator's race explains, nothing more, and jobs_serve none.
func TestToleratedLoss(t *testing.T) {
	cases := []struct {
		clustered  bool
		events, ok int
	}{
		{true, 24, 0}, {true, 23, 1}, {true, 22, 0}, {true, 0, 0}, {true, 25, 0},
		{false, 23, 0}, {false, 24, 0},
	}
	for _, c := range cases {
		if got := toleratedLoss(c.clustered, c.events, grid24Cells); got != c.ok {
			t.Errorf("clustered %v, %d events: %d tolerated, want %d", c.clustered, c.events, got, c.ok)
		}
	}
	// What is not tolerated fails the op's check.
	if _, _, err := checkReport(&serve.Report{Sweep: &serve.SweepRecord{}}, 22, grid24Cells); err == nil {
		t.Error("a stream two events short passed checkReport")
	}
}

// TestUndeclaredLayerMetric: a value under a name BENCHMARK.json does not
// list is a failed attempt, not an extra row of the ledger.
func TestUndeclaredLayerMetric(t *testing.T) {
	l := newLayerValues()
	l.set("serve.job_ms_tail", 1)
	l.setNote("serve.no_such_metric", 2, "note")
	if _, ok := l.v["serve.no_such_metric"]; ok || len(l.v) != 1 {
		t.Errorf("values %v, want only the declared name", l.v)
	}
	if len(l.errs) != 1 {
		t.Errorf("%d errors, want 1 for the undeclared name", len(l.errs))
	}
}

// TestJudgeSetupFloor: setup_s regresses only when it is worse by its
// bound and by more than a quarter of a second.
func TestJudgeSetupFloor(t *testing.T) {
	var setup metricDef
	for _, d := range endToEndDefs {
		if d.Name == "setup_s" {
			setup = d
		}
	}
	m := func(rounds ...float64) ledgerMetric { return ledgerMetric{Value: median(rounds), Rounds: rounds} }
	cases := []struct {
		a, b ledgerMetric
		want string
	}{
		{m(0.030, 0.031, 0.029), m(0.045, 0.046, 0.044), verdictOK},   // +50 %, 15 ms
		{m(0.030, 0.050, 0.029), m(0.030, 0.031, 0.029), verdictOK},   // a spread of 70 %, 21 ms
		{m(1.00, 1.01, 0.99), m(1.40, 1.41, 1.39), verdictRegressed},  // +40 %, 0.4 s
		{m(1.00, 1.01, 0.99), m(1.20, 1.21, 1.19), verdictOK},         // +20 %
		{m(1.00, 1.60, 0.99), m(1.00, 1.01, 0.99), verdictUnresolved}, // a spread of 61 %, 0.61 s
		{m(2.00, 2.01, 1.99), m(1.00, 1.01, 0.99), verdictBetter},     // half
	}
	for i, c := range cases {
		if got := judge(setup, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

func writeLedger(t *testing.T, dir, name string, edit func(*ledger)) string {
	t.Helper()
	led := ledger{
		Schema:   ledgerSchema,
		EndToEnd: make(map[string]map[string]ledgerMetric),
		Ops:      make(map[string]ledgerOps),
		PerLayer: make(map[string]ledgerMetric),
	}
	for _, w := range workloads {
		led.EndToEnd[w.name] = make(map[string]ledgerMetric)
		for _, d := range endToEndDefs {
			led.EndToEnd[w.name][d.Name] = ledgerMetric{Value: 100, Unit: d.Unit, Rounds: []float64{99, 100, 101}}
		}
		led.Ops[w.name] = ledgerOps{Attempted: 50}
	}
	for _, d := range perLayerDefs {
		led.PerLayer[d.Name] = ledgerMetric{Value: 1, Unit: d.Unit}
	}
	led.PerLayer["cluster.lost_cell_events"] = ledgerMetric{Unit: "count"}
	if edit != nil {
		edit(&led)
	}
	data, err := json.Marshal(led)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := writeLedger(t, dir, "a.json", nil)
	row := func(out, workload, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) >= 2 && f[0] == workload && f[1] == metric {
				return line
			}
		}
		t.Fatalf("no row for %s %s in\n%s", workload, metric, out)
		return ""
	}
	set := func(workload, metric string, m ledgerMetric) func(*ledger) {
		return func(l *ledger) { l.EndToEnd[workload][metric] = m }
	}
	cases := []struct {
		name, workload, metric, verdict string
		edit                            func(*ledger)
		fails                           bool
	}{
		{"same", "grid_cli", "cells_per_s", verdictOK, nil, false},
		{"slower throughput", "grid_cli", "cells_per_s", verdictRegressed,
			set("grid_cli", "cells_per_s", ledgerMetric{Value: 60, Rounds: []float64{59, 60, 61}}), true},
		{"higher latency", "jobs_serve", "job_ms_p50", verdictRegressed,
			set("jobs_serve", "job_ms_p50", ledgerMetric{Value: 140, Rounds: []float64{139, 140, 141}}), true},
		{"within bound", "jobs_serve", "job_ms_p50", verdictOK,
			set("jobs_serve", "job_ms_p50", ledgerMetric{Value: 108, Rounds: []float64{107, 108, 109}}), false},
		{"a tenth where the pair repeats within it", "hogwild_dense", "updates_per_s", verdictRegressed,
			set("hogwild_dense", "updates_per_s", ledgerMetric{Value: 85, Rounds: []float64{84, 85, 86}}), true},
		{"own spread over a tenth", "hogwild_sparse_gated", "updates_per_s", verdictUnresolved,
			set("hogwild_sparse_gated", "updates_per_s", ledgerMetric{Value: 100, Rounds: []float64{90, 100, 110}}), true},
		{"an ungated pair is not judged", "hogwild_dense", "failed_share", verdictOK,
			set("hogwild_dense", "cells_per_s", ledgerMetric{Value: 10, Rounds: []float64{10, 10, 10}}), false},
		{"a lost cell event more", "jobs_cluster", "lost_cell_events", verdictIncreased,
			func(l *ledger) { l.Ops["jobs_cluster"] = ledgerOps{Attempted: 50, LostEvents: 1} }, true},
		{"a lost cell event more, traced pass", "jobs_cluster", "lost_cell_events", verdictIncreased,
			func(l *ledger) { l.PerLayer["cluster.lost_cell_events"] = ledgerMetric{Value: 2} }, true},
		{"own spread over bound", "jobs_cluster", "cells_per_s", verdictUnresolved,
			set("jobs_cluster", "cells_per_s", ledgerMetric{Value: 100, Rounds: []float64{80, 100, 125}}), true},
		{"noisy but every round better", "jobs_cluster", "cells_per_s", verdictBetter,
			set("jobs_cluster", "cells_per_s", ledgerMetric{Value: 150, Rounds: []float64{130, 150, 170}}), false},
		{"a failed op", "hogwild_dense", "failed_share", verdictRegressed,
			func(l *ledger) { l.Ops["hogwild_dense"] = ledgerOps{Attempted: 50, Failed: 1} }, true},
		{"shape only", "grid_cli", "cells_per_s", verdictRefused,
			func(l *ledger) {
				l.Host.ShapeOnly = true
				l.EndToEnd["grid_cli"]["cells_per_s"] = ledgerMetric{Value: 10, Rounds: []float64{10, 10, 10}}
			}, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareLedgers(&out, base, writeLedger(t, dir, "b.json", c.edit))
		if (err != nil) != c.fails {
			t.Errorf("%s: error %v, want failure %v", c.name, err, c.fails)
		}
		if line := row(out.String(), c.workload, c.metric); !strings.HasSuffix(strings.TrimSpace(line), c.verdict) {
			t.Errorf("%s: row %q, want verdict %s", c.name, line, c.verdict)
		}
	}

	// One row per gate, and none for a pair that is not one.
	var out bytes.Buffer
	if err := compareLedgers(&out, base, base); err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		row(out.String(), g.workload, g.metric)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "hogwild_dense" && f[1] == "cells_per_s" {
			t.Errorf("a row for an ungated pair: %q", line)
		}
	}

	// shape_only refuses wall-clock per-layer rows and still compares counts.
	out.Reset()
	shape := writeLedger(t, dir, "c.json", func(l *ledger) { l.Host.ShapeOnly = true })
	if err := compareLedgers(&out, base, shape); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "atomicfloat.load_all_ns_per_coord":
			if !strings.Contains(line, verdictRefused) {
				t.Errorf("wall-clock row compared on a shape_only ledger: %q", line)
			}
		case "hogwild.dense_coordops_per_iter", "cluster.journal_appends_per_job":
			if strings.Contains(line, verdictRefused) {
				t.Errorf("count row refused on a shape_only ledger: %q", line)
			}
		}
	}
}
