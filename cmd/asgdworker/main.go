// Command asgdworker is a sweep cluster worker node: it registers with
// an `asgdserve -cluster` coordinator, leases cell batches, executes
// them through the same internal/sweep pipeline the CLI and the
// in-process executor use, and streams each cell's result back as it
// completes. Results are byte-stable — per-cell seeds derive from the
// cell's own grid coordinates — so any worker (or a re-execution after
// this worker crashes) produces identical deterministic fields, and the
// coordinator's reassembled document matches a single-process run modulo
// the documented timing fields.
//
// Workers are stateless and crash-safe by construction: a SIGKILLed
// worker's unreported cells requeue when its lease deadline passes, and
// a restarted worker simply registers under a fresh identity (the
// coordinator answers 410 Gone to identities it no longer knows; the
// worker re-registers and continues).
//
// Usage:
//
//	asgdworker -coordinator http://coordinator:8080
//	asgdworker -coordinator http://coordinator:8080 -name pod-7 -concurrency 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"asyncsgd/internal/cluster"
	"asyncsgd/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "asgdworker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("asgdworker", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://host:8080")
	name := fs.String("name", "", "worker label shown in /cluster/v1/status (default: hostname)")
	concurrency := fs.Int("concurrency", 0, "sweep-pool concurrency cap per batch (0: GOMAXPROCS)")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `asgdworker — leased execution node for the asgdserve sweep cluster.
Registers with the coordinator, leases cell batches, runs them on the
local sweep pool, and streams results back as NDJSON. Safe to kill at
any time: unreported cells requeue on lease expiry and a restarted
worker rejoins under a fresh identity. See DESIGN.md §10.

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.String("asgdworker"))
		return nil
	}
	if *coordinator == "" {
		return fmt.Errorf("-coordinator is required")
	}
	if *concurrency < 0 {
		return fmt.Errorf("-concurrency %d: want ≥ 0", *concurrency)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err == nil {
			*name = host
		}
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator:   *coordinator,
		Name:          *name,
		MaxConcurrent: *concurrency,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Fprintf(os.Stderr, "asgdworker %s (%s) joining %s\n", version.Version, *name, *coordinator)
	// Run returns when ctx is canceled (SIGTERM): a graceful exit, not an
	// error — leased-but-unreported cells requeue at the coordinator.
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	fmt.Fprintln(os.Stderr, "asgdworker: shut down")
	return nil
}
