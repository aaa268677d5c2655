// Command asgdbench regenerates the paper's quantitative results. Each
// experiment id (e1..e19) maps to one theorem, lemma, figure, discussion
// point or runtime claim; see DESIGN.md §3 for the index.
//
// Usage:
//
//	asgdbench -exp all -scale quick
//	asgdbench -exp e5 -scale full
//	asgdbench -exp e15 -scale full   # sparse vs dense update pipeline
//	asgdbench -exp e16 -scale full   # bounded-staleness gate vs the adversary
//	asgdbench -exp e2,e5 -json       # machine-readable results on stdout
//
// The sweep subcommand runs the staleness phase diagram (a
// bounded-staleness τ × workers × sparsity × replicates grid) through the
// concurrent scenario-sweep engine and prints the aggregated table:
//
//	asgdbench sweep                                   # default ≥100-cell machine grid
//	asgdbench sweep -taus 1,2,4 -workers 2,4 -reps 5  # custom axes
//	asgdbench sweep -runtime hogwild -json            # real threads, JSON records
//
// With -json, output is a single JSON document (schema asgdbench/v2, a
// superset of v1): one record per experiment with its id, title,
// wall-clock seconds and captured report text, plus — for the sweep
// subcommand — a `sweep` record with the spec identity and one
// machine-readable result per cell. On the default machine runtime the
// sweep document is byte-identical across reruns of the same spec+seed,
// modulo the timing fields (seconds, updates_per_sec). The sweep runs
// through the same internal/serve request pipeline as the asgdserve job
// server, so the CLI document and the server's result endpoint cannot
// drift apart (DESIGN.md §6 documents the schemas field by field).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"asyncsgd/internal/experiments"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "asgdbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "sweep" {
		return runSweep(args[1:], out)
	}
	fs := flag.NewFlagSet("asgdbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (e1..e19), comma list, or 'all'")
	scaleName := fs.String("scale", "quick", "experiment scale: quick or full")
	list := fs.Bool("list", false, "list experiments and exit")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON results instead of report text")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `asgdbench — regenerate the PODC'18 reproduction's experiment tables.

Usage:
  asgdbench [flags]              run experiments (e1..e19)
  asgdbench sweep [flags]        run a staleness phase-diagram sweep
                                 (see 'asgdbench sweep -h')

Flags:
`)
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), `
Examples:
  asgdbench -list
  asgdbench -exp e5 -scale full
  asgdbench -exp e2,e16 -json
`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(out, version.String("asgdbench"))
		return nil
	}
	if *list {
		for _, id := range experiments.IDs() {
			title, err := experiments.TitleOf(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-4s %s\n", id, title)
		}
		return nil
	}
	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}
	ids := experiments.IDs()
	if *exp != "all" {
		ids = ids[:0]
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	if !*asJSON {
		for _, id := range ids {
			if err := experiments.Run(id, scale, out); err != nil {
				return err
			}
		}
		return nil
	}

	report := serve.Report{Schema: sweep.SchemaV2, Scale: *scaleName}
	for _, id := range ids {
		title, err := experiments.TitleOf(id)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		start := time.Now()
		if err := experiments.Run(id, scale, &buf); err != nil {
			return err
		}
		report.Results = append(report.Results, serve.ExperimentRecord{
			ID:      id,
			Title:   title,
			Seconds: time.Since(start).Seconds(),
			Output:  buf.String(),
		})
	}
	return report.Encode(out)
}

// runSweep is the sweep subcommand: build the phase-diagram request from
// the axis flags and hand it to the internal/serve request pipeline —
// the exact code path an asgdserve job takes — then emit the aggregated
// table (text) or the full asgdbench/v2 document with per-cell records
// (-json).
func runSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asgdbench sweep", flag.ContinueOnError)
	// The axis flags write straight into the request; an absent one leaves
	// its field empty and SweepRequest.Normalized supplies the default.
	var req serve.SweepRequest
	fs.Func("taus", "bounded-staleness gate values (comma list; default "+list(serve.DefaultTaus)+")",
		func(s string) (err error) { req.Taus, err = parseList(s, strconv.Atoi); return err })
	fs.Func("workers", "worker/thread counts (comma list; default "+list(serve.DefaultWorkers)+")",
		func(s string) (err error) { req.Workers, err = parseList(s, strconv.Atoi); return err })
	fs.Func("sparsity", "oracle row densities (comma list; default "+list(serve.DefaultSparsity)+")",
		func(s string) (err error) { req.Sparsity, err = parseList(s, parseFloat); return err })
	fs.IntVar(&req.Dim, "d", serve.DefaultDim, "model dimension")
	fs.IntVar(&req.Replicates, "reps", serve.DefaultReplicates, "seed replicates per grid point")
	fs.IntVar(&req.Iters, "iters", serve.DefaultIters, "iterations per cell")
	req.Seed = fs.Uint64("seed", serve.DefaultSeed, "spec seed (per-cell seeds are split from it)")
	req.Adversary = fs.Int("adversary", serve.DefaultAdversary, "machine runtime: MaxStale budget (0 = round-robin)")
	fs.StringVar(&req.Runtime, "runtime", serve.DefaultRuntime, "cell runtime: machine, hogwild or both")
	fs.Func("faults", "crash/rejoin axis: none, crash/<n>[/rejoin], ticket/<n>[/rejoin] (comma list; default none)",
		func(s string) error { req.Faults = splitList(s); return nil })
	fs.Func("byzantine", "gradient-corruption axis: none, signflip/<f>, scale/<f>, nan/<f> (comma list; default none)",
		func(s string) error { req.Byzantine = splitList(s); return nil })
	fs.Func("defense", "defense axis: none, clip/<limit>, median (comma list; default none; median needs -runtime hogwild)",
		func(s string) error { req.Defenses = splitList(s); return nil })
	asJSON := fs.Bool("json", false, "emit the asgdbench/v2 JSON document with per-cell records")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `asgdbench sweep — run a bounded-staleness τ × workers × sparsity grid
through the concurrent scenario-sweep engine (the default flags expand to
the standard 108-cell deterministic machine grid).

Flags:
`)
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), `
Examples:
  asgdbench sweep
  asgdbench sweep -taus 1,2,4 -workers 2,4 -reps 5
  asgdbench sweep -runtime hogwild -json
  asgdbench sweep -faults none,ticket/1/rejoin -taus 4
  asgdbench sweep -runtime hogwild -byzantine none,signflip/1 -defense none,clip/5,median
`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(out, version.String("asgdbench"))
		return nil
	}
	// SweepRequest treats zero numeric fields as "absent → default"
	// (that is the right contract for a JSON body); an explicit CLI flag
	// must not be silently replaced, so reject zeros here.
	if req.Replicates < 1 {
		return fmt.Errorf("-reps %d: want ≥ 1", req.Replicates)
	}
	if req.Iters < 1 {
		return fmt.Errorf("-iters %d: want ≥ 1", req.Iters)
	}
	if req.Dim < 1 {
		return fmt.Errorf("-d %d: want ≥ 1", req.Dim)
	}
	start := time.Now()
	report, err := serve.RunRequest(context.Background(), req, nil)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	all := report.Sweep.Results
	failed := report.FailedCells()

	if !*asJSON {
		if _, err := io.WriteString(out, report.Sweep.Table); err != nil {
			return err
		}
		fmt.Fprintf(out, "ran %d cells in %.2fs\n", len(all), elapsed.Seconds())
		for _, r := range all {
			if r.Err != "" {
				fmt.Fprintf(out, "cell %d (%s/%s) failed: %s\n",
					r.Index, r.Runtime, r.Strategy, r.Err)
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d/%d cells failed", failed, len(all))
		}
		return nil
	}
	if err := report.Encode(out); err != nil {
		return err
	}
	// The JSON document records per-cell Err fields, but a failed sweep
	// must still fail the command (scripts gate on exit status).
	if failed > 0 {
		return fmt.Errorf("%d/%d cells failed", failed, len(all))
	}
	return nil
}

// splitList splits a comma-separated label list, trimming whitespace.
// Label validation happens in SweepRequest.Normalized, the same place a
// JSON request body is checked.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseList parses a comma-separated list of numbers.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// list renders a default axis the way its flag spells it: "1,2,4,8".
func list[T any](vals []T) string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(vals), "[]"), " ", ",")
}
