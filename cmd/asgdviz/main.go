// Command asgdviz renders the paper's Figure 1: the pending-update matrix
// of a lock-free SGD execution under an adversarial schedule. Rows are
// iterations in the paper's total order, columns are model coordinates;
// '#' marks updates already applied to shared memory at the snapshot
// time, 'o' marks generated-but-pending updates, '.' untouched
// coordinates.
//
// Usage:
//
//	asgdviz -threads 3 -dim 8 -iters 24 -budget 5 -seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/core"
	"asyncsgd/internal/experiments"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
	"asyncsgd/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "asgdviz:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("asgdviz", flag.ContinueOnError)
	threads := fs.Int("threads", 3, "number of SGD threads")
	dim := fs.Int("dim", 8, "model dimension")
	iters := fs.Int("iters", 24, "iterations to run and display")
	budget := fs.Int("budget", 5, "adversary staleness budget (0 = round-robin)")
	seed := fs.Uint64("seed", 7, "random seed")
	timeline := fs.Bool("timeline", false, "also render the per-thread step timeline")
	timelineWidth := fs.Int("timeline-width", 160, "max steps shown in the timeline")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `asgdviz — render the paper's Figure 1: the pending-update matrix of a
lock-free SGD execution under an adversarial schedule ('#' applied,
'o' generated-but-pending, '.' untouched), plus an optional per-thread
step timeline.

Flags:
`)
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), `
Examples:
  asgdviz -threads 3 -dim 8 -iters 24 -budget 5 -seed 7
  asgdviz -timeline -timeline-width 120
`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.String("asgdviz"))
		return nil
	}
	q, err := grad.NewIsoQuadratic(*dim, 1, 0.5, 3, nil)
	if err != nil {
		return err
	}
	cfg := core.EpochConfig{
		Threads:    *threads,
		TotalIters: *iters,
		Alpha:      0.05,
		Oracle:     q,
		Seed:       *seed,
		X0:         vec.Constant(*dim, 0.5),
		Track:      true,
	}
	if *budget > 0 {
		cfg.Policy = &sched.MaxStale{Budget: *budget}
	} else {
		cfg.Policy = &sched.RoundRobin{}
	}
	res, err := core.RunEpoch(cfg)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderFigure1(res.Tracker, *dim, *iters))
	if *timeline {
		fmt.Println()
		fmt.Println(experiments.RenderTimeline(res.Tracker.Timelines(), *threads, *timelineWidth))
	}
	fmt.Printf("\nτmax (interval contention) = %d, τavg = %.2f, max view staleness = %d\n",
		contention.TauMax(res.Windows), contention.TauAvg(res.Windows), res.Tracker.TauMaxView())
	return nil
}
