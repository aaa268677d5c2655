package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictIncreased  = "INCREASED"
	verdictRefused    = "refused(shape_only)"
)

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, led.Schema, ledgerSchema)
	}
	return &led, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction: positive is worse.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies a metric's bound to two sets of rounds. A metric whose
// own run-to-run spread, in either set, exceeds the bound cannot be told
// apart from noise: it is unresolved, unless every round of b reads
// better than every round of a. Differences and spreads below the
// metric's absolute floor never count.
func judge(d metricDef, a, b ledgerMetric) string {
	noisy := func(m ledgerMetric) bool {
		return relSpread(m.Rounds) > d.Bound && absSpread(m.Rounds) > d.Floor
	}
	if noisy(a) || noisy(b) {
		if allBetter(d, a.Rounds, b.Rounds) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	if math.Abs(b.Value-a.Value) <= d.Floor {
		return verdictOK
	}
	switch w := worsening(d, a.Value, b.Value); {
	case w > d.Bound:
		return verdictRegressed
	case w < -d.Bound:
		return verdictBetter
	default:
		return verdictOK
	}
}

// absSpread is the distance between the quartiles of xs.
func absSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return q3 - q1
}

func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worsening(d, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareLedgers prints one row per gate — a (workload, end-to-end metric)
// pair with its own bound — with its verdict, one per workload's failure
// count, one for jobs_cluster's lost cell events, and the per-layer
// metrics side by side. It returns an error when any row regressed,
// increased, is unresolved or is missing.
func compareLedgers(stdout io.Writer, pathA, pathB string) error {
	a, err := readLedger(pathA)
	if err != nil {
		return err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return err
	}
	shapeOnly := a.Host.ShapeOnly || b.Host.ShapeOnly
	fmt.Fprintf(stdout, "A: %s (seed %d, %d CPU, %s)\nB: %s (seed %d, %d CPU, %s)\n",
		pathA, a.Seed, a.Host.NumCPU, a.Host.GoVersion, pathB, b.Seed, b.Host.NumCPU, b.Host.GoVersion)
	if shapeOnly {
		fmt.Fprintln(stdout, "a ledger is stamped shape_only: wall-clock metrics are refused, counts still compare")
	}

	bad := 0
	fmt.Fprintf(stdout, "\n%-22s %-16s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A", "B", "worse", "bound", "spreadA", "spreadB", "verdict")
	count := func(workload, name string, ca, cb float64, verdict string) {
		if cb > ca {
			bad++
		} else {
			verdict = verdictOK
		}
		fmt.Fprintf(stdout, "%-22s %-16s %12.5g %12.5g %8s %7s %8s %8s  %s\n",
			workload, name, ca, cb, "", "any", "", "", verdict)
	}
	for _, w := range workloads {
		for _, g := range gates {
			if g.workload != w.name {
				continue
			}
			d := endToEndDef(g.metric)
			d.Bound = g.bound
			ma, okA := a.EndToEnd[w.name][d.Name]
			mb, okB := b.EndToEnd[w.name][d.Name]
			if !okA || !okB {
				fmt.Fprintf(stdout, "%-22s %-16s missing from a ledger\n", w.name, d.Name)
				bad++
				continue
			}
			verdict := verdictRefused
			if !shapeOnly {
				verdict = judge(d, ma, mb)
			}
			if verdict == verdictRegressed || verdict == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(stdout, "%-22s %-16s %12.5g %12.5g %+8.3f %7.2f %8.3f %8.3f  %s\n",
				w.name, d.Name, ma.Value, mb.Value, worsening(d, ma.Value, mb.Value), d.Bound,
				relSpread(ma.Rounds), relSpread(mb.Rounds), verdict)
		}
		// Counts with baseline 0: any increase is flagged.
		count(w.name, "failed_share", failedShare(a.Ops[w.name]), failedShare(b.Ops[w.name]), verdictRegressed)
		if w.name == "jobs_cluster" {
			// Both passes' jobs: the timed rounds' count and the traced
			// window's per-layer metric.
			lost := func(l *ledger) float64 {
				return float64(l.Ops[w.name].LostEvents) + l.PerLayer["cluster.lost_cell_events"].Value
			}
			count(w.name, "lost_cell_events", lost(a), lost(b), verdictIncreased)
		}
	}

	fmt.Fprintf(stdout, "\n%-58s %14s %14s %8s\n", "per-layer metric (no bound)", "A", "B", "worse")
	for _, d := range perLayerDefs {
		name := d.Name
		ma, okA := a.PerLayer[name]
		mb, okB := b.PerLayer[name]
		switch {
		case !okA || !okB:
			fmt.Fprintf(stdout, "%-58s missing from a ledger\n", name)
		case shapeOnly && d.wallClock():
			fmt.Fprintf(stdout, "%-58s %14s %14s %8s\n", name, "-", "-", verdictRefused)
		default:
			fmt.Fprintf(stdout, "%-58s %14.6g %14.6g %+8.3f\n", name, ma.Value, mb.Value, worsening(d, ma.Value, mb.Value))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, increased, are unresolved or missing", bad)
	}
	return nil
}

func failedShare(o ledgerOps) float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}
