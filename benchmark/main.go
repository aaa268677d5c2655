// Command benchmark is the repository's performance ledger: one command
// that boots both SGD runtimes, the sweep engine, the job server and the
// cluster in one process, drives five closed-loop workloads, checks their
// outputs and prints every end-to-end and per-layer metric by name.
//
// Three ways to run it (see README.md in this directory):
//
//	go run ./benchmark -seed N -out DIR          the full ledger: a timed pass
//	                                             (tracing off, interleaved
//	                                             rounds) and a traced pass;
//	                                             writes DIR/ledger.json and
//	                                             DIR/trace.json
//	go run ./benchmark -compare A.json B.json    hold ledger B against ledger A
//	                                             with the metrics' bounds
//	… --workload W --seed N --seconds S --trace 0|1
//	                                             one run of one workload, as
//	                                             the driver of BENCHMARK.json
//	                                             calls it; the last stdout line
//	                                             is the result object
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results have been printed when any op
// or check failed, so the command exits non-zero.
var errIncorrect = errors.New("output checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run only this workload, once, and print the driver's result object")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", 10, "with -workload: length of the measured window")
		trace   = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		out     = fs.String("out", filepath.Join(".bench_build", "out"), "directory for ledger.json, trace.json and the cluster journal")
		compare = fs.Bool("compare", false, "compare two ledgers: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two ledger files")
		}
		return compareLedgers(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("creating -out: %w", err)
	}
	e := &env{outDir: *out}
	host := readHost()
	if host.ShapeOnly {
		fmt.Fprintf(stdout, "shape_only: a workload keeps 2 threads runnable, this host offers %d CPU(s) at GOMAXPROCS %d; wall-clock metrics show shape, not speed\n",
			host.NumCPU, host.GOMAXPROCS)
	}

	if *name == "" {
		e.full = true
		return fullLedger(stdout, e, host, *seed)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	dur := time.Duration(*seconds) * time.Second
	switch *trace {
	case 0:
		return driverTimed(stdout, w, e, *seed, dur)
	case 1:
		return driverTraced(stdout, w, e, host, *seed, dur)
	default:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the failures, then the result object as the last line.
func emit(stdout io.Writer, r result, errs []error) error {
	for _, err := range errs {
		fmt.Fprintln(stdout, "FAILED:", err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

func driverTimed(stdout io.Writer, w workload, e *env, seed uint64, dur time.Duration) error {
	r, err := timedRun(w, e, seed, dur, setupReps)
	if err != nil {
		return err
	}
	values := r.values()
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range endToEndDefs {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		fmt.Fprintf(stdout, "%-22s %-14s %14.6g %s\n", w.name, d.Name, values[d.Name], d.Unit)
	}
	fmt.Fprintf(stdout, "%-22s %-14s %14.6g share (%d of %d ops)\n", w.name, "failed_share",
		float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	if r.LostEvents > 0 {
		fmt.Fprintf(stdout, "%-22s %-14s %14d count (see toleratedLoss)\n", w.name, "lost_cell_events", r.LostEvents)
	}
	return emit(stdout, res, r.errs)
}

// values maps the end-to-end metric names to a timed run's numbers.
func (r timedResult) values() map[string]float64 {
	return map[string]float64{
		"updates_per_s": r.UpdatesPerS,
		"cells_per_s":   r.CellsPerS,
		"job_ms_p50":    r.JobMsP50,
		"setup_s":       r.SetupS,
	}
}

func driverTraced(stdout io.Writer, w workload, e *env, host hostRecord, seed uint64, dur time.Duration) error {
	tres, tr := tracedPass(e, seed, map[string]time.Duration{w.name: dur}, nil)
	if err := tr.write(filepath.Join(e.outDir, "trace.json"), host); err != nil {
		return err
	}
	missing := tres.layer.missing()
	errs := append(tres.layer.errs, missing...)
	res := result{
		Attempted: tres.attempted + len(missing), Failed: tres.failed + len(missing),
		Metrics: make(map[string]metricValue),
	}
	for _, d := range perLayerDefs {
		if v, ok := tres.layer.v[d.Name]; ok {
			res.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	printLayer(stdout, tres.layer)
	res.Correct = res.Failed == 0
	return emit(stdout, res, errs)
}

// printLayer prints every per-layer metric with its unit and note.
func printLayer(stdout io.Writer, l *layerValues) {
	for _, d := range perLayerDefs {
		v, ok := l.v[d.Name]
		if !ok {
			continue
		}
		note := ""
		if n := l.notes[d.Name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(stdout, "%-58s %14.6g %s%s\n", d.Name, v, d.Unit, note)
	}
}

// --- the full ledger ---

// ledger is what the full run writes and -compare reads.
type ledger struct {
	Schema    string                             `json:"schema"`
	Seed      uint64                             `json:"seed"`
	Host      hostRecord                         `json:"host"`
	EndToEnd  map[string]map[string]ledgerMetric `json:"end_to_end"` // workload → metric
	Ops       map[string]ledgerOps               `json:"ops"`
	PerLayer  map[string]ledgerMetric            `json:"per_layer"`
	Trace     map[string]workloadTrace           `json:"trace"`
	Attempted int                                `json:"attempted"`
	Failed    int                                `json:"failed"`
	Failures  []string                           `json:"failures,omitempty"`
}

const ledgerSchema = "asgd-perf-ledger/v1"

type ledgerMetric struct {
	Value float64 `json:"value"` // end-to-end: median of the rounds
	Unit  string  `json:"unit"`
	// Rounds are the per-round values of an end-to-end metric; -compare
	// takes a ledger's own spread from them.
	Rounds []float64 `json:"rounds,omitempty"`
	Note   string    `json:"note,omitempty"`
}

type ledgerOps struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// LostEvents is jobs_cluster's count of tolerated stream defects (see
	// toleratedLoss); -compare flags any increase.
	LostEvents int `json:"lost_cell_events,omitempty"`
}

// The full ledger's shape. It is fixed here, not on the command line, so
// that any two ledgers of one schema were measured alike and -compare may
// hold one against the other.
const (
	// ledgerRounds timed windows per workload, interleaved across the
	// workloads so slow drift of the host lands on all of them alike. Five,
	// not the three a 24 s budget would also buy in 8 s windows: a spread
	// needs quartiles to stand on.
	ledgerRounds   = 5
	ledgerRoundFor = 6 * time.Second
	// ledgerTracedFor is each workload's window in the traced pass.
	ledgerTracedFor = 5 * time.Second
)

func fullLedger(stdout io.Writer, e *env, host hostRecord, seed uint64) error {
	led := ledger{
		Schema: ledgerSchema, Seed: seed, Host: host,
		EndToEnd: make(map[string]map[string]ledgerMetric),
		Ops:      make(map[string]ledgerOps),
		PerLayer: make(map[string]ledgerMetric),
	}
	var errs []error

	// Timed pass, tracing off.
	fmt.Fprintf(stdout, "timed pass: %d rounds × %v per workload, seed %d\n", ledgerRounds, ledgerRoundFor, seed)
	perRound := make(map[string][]timedResult)
	for round := 0; round < ledgerRounds; round++ {
		for _, w := range workloads {
			r, err := timedRun(w, e, seed, ledgerRoundFor, setupReps)
			if err != nil {
				return err
			}
			perRound[w.name] = append(perRound[w.name], r)
			errs = append(errs, r.errs...)
		}
	}
	timed := make(map[string]timedResult)
	for _, w := range workloads {
		rs := perRound[w.name]
		metrics := make(map[string]ledgerMetric)
		for _, g := range gates {
			if g.workload != w.name {
				continue
			}
			var vals []float64
			for _, r := range rs {
				vals = append(vals, r.values()[g.metric])
			}
			unit := endToEndDef(g.metric).Unit
			metrics[g.metric] = ledgerMetric{Value: median(vals), Unit: unit, Rounds: vals}
			fmt.Fprintf(stdout, "%-22s %-16s %14.6g %-4s rounds %v\n", w.name, g.metric, median(vals), unit, vals)
		}
		var ops ledgerOps
		var opsPerS []float64
		for _, r := range rs {
			ops.Attempted += r.Attempted
			ops.Failed += r.Failed
			ops.LostEvents += r.LostEvents
			opsPerS = append(opsPerS, r.OpsPerS)
		}
		fmt.Fprintf(stdout, "%-22s %-16s %14.6g share (%d of %d ops)\n", w.name, "failed_share",
			failedShare(ops), ops.Failed, ops.Attempted)
		if w.name == "jobs_cluster" {
			fmt.Fprintf(stdout, "%-22s %-16s %14d count (see toleratedLoss)\n", w.name, "lost_cell_events", ops.LostEvents)
		}
		led.EndToEnd[w.name], led.Ops[w.name] = metrics, ops
		led.Attempted += ops.Attempted
		led.Failed += ops.Failed
		timed[w.name] = timedResult{OpsPerS: median(opsPerS)}
	}

	// Traced pass.
	fmt.Fprintf(stdout, "traced pass: %v per workload plus the layer probes\n", ledgerTracedFor)
	focus := make(map[string]time.Duration)
	for _, w := range workloads {
		focus[w.name] = ledgerTracedFor
	}
	tres, tr := tracedPass(e, seed, focus, timed)
	errs = append(errs, tres.layer.errs...)
	led.Attempted += tres.attempted
	led.Failed += tres.failed
	led.Trace = tres.perWorkload
	for _, d := range perLayerDefs {
		if v, ok := tres.layer.v[d.Name]; ok {
			led.PerLayer[d.Name] = ledgerMetric{Value: v, Unit: d.Unit, Note: tres.layer.notes[d.Name]}
		}
	}
	printLayer(stdout, tres.layer)
	for _, w := range workloads {
		wt := tres.perWorkload[w.name]
		fmt.Fprintf(stdout, "%-22s trace_overhead_share %8.4f  op_coverage_share %8.4f  (%d traced ops, %.4g vs %.4g ops/s)\n",
			w.name, wt.OverheadShare, wt.CoverageShare, wt.Ops, wt.TracedOpsPerS, wt.TimedOpsPerS)
	}
	missing := tres.layer.missing()
	errs = append(errs, missing...)
	led.Attempted += len(missing)
	led.Failed += len(missing)

	for _, err := range errs {
		led.Failures = append(led.Failures, err.Error())
		fmt.Fprintln(stdout, "FAILED:", err)
	}
	if err := tr.write(filepath.Join(e.outDir, "trace.json"), host); err != nil {
		return err
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding ledger: %w", err)
	}
	path := filepath.Join(e.outDir, "ledger.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing ledger: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %s and %s; %d of %d attempts failed\n", path, filepath.Join(e.outDir, "trace.json"), led.Failed, led.Attempted)
	if led.Failed > 0 {
		return errIncorrect
	}
	return nil
}
