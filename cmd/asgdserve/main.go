// Command asgdserve is the sweep-as-a-service front end: a long-running
// HTTP server that accepts staleness phase-diagram sweep specifications
// as JSON, executes them FIFO on the concurrent scenario-sweep engine
// (each job saturates GOMAXPROCS through the process-wide weighted pool,
// and the next job's cells start as the running job's last ones are
// admitted), streams per-cell results as NDJSON or SSE, and answers repeated
// deterministic specs from an in-memory LRU cache with byte-identical
// results. The final aggregate document of every job is the asgdbench/v2
// schema — byte-identical to `asgdbench sweep -json` for the same spec,
// modulo the two timing fields, because both run the identical
// internal/serve pipeline.
//
// Usage:
//
//	asgdserve                       # listen on :8080
//	asgdserve -addr 127.0.0.1:9090 -queue 32 -cache 64
//
// API (see DESIGN.md §6 for the request and document schemas, §7 for
// the metrics and telemetry contract):
//
//	GET    /healthz                 liveness + queue gauges
//	GET    /metrics                 Prometheus text-format metrics
//	GET    /v1/jobs                 all retained jobs, submission order
//	POST   /v1/sweeps               submit a sweep spec → 202 + job id
//	GET    /v1/sweeps/{id}          job status
//	GET    /v1/sweeps/{id}/events   stream results (NDJSON; SSE on Accept)
//	GET    /v1/sweeps/{id}/result   final asgdbench/v2 document
//	DELETE /v1/sweeps/{id}          cancel a queued or running job
//
// An empty request body ({}) runs the default 108-cell deterministic
// machine grid. On SIGTERM/SIGINT the server drains gracefully: new
// submissions are refused with 503 while queued and running jobs finish
// (bounded by -drain-timeout), then the listener shuts down.
//
// Cluster mode (-cluster) swaps the in-process executor for the
// internal/cluster coordinator: jobs fan out as leased cell batches to
// worker nodes (`asgdworker`, or -local-workers in-process ones), the
// worker protocol mounts under /cluster/v1/*, and -cluster-log makes the
// job queue durable — a restarted coordinator replays the log and
// finishes interrupted sweeps with byte-identical documents (DESIGN.md
// §10).
//
//	asgdserve -cluster -local-workers 2
//	asgdserve -cluster -cluster-log /var/lib/asgd/joblog
//	asgdworker -coordinator http://coordinator:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asyncsgd/internal/cluster"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "asgdserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("asgdserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 16, "bounded job-queue depth (submissions beyond it get 429)")
	cacheSize := fs.Int("cache", 32, "LRU result-cache size in sweeps (0 disables)")
	history := fs.Int("history", 128, "finished jobs retained for introspection/replay")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "graceful-drain bound on SIGTERM")
	clusterMode := fs.Bool("cluster", false, "run as cluster coordinator: dispatch cells to leased workers, mount /cluster/v1/*")
	clusterLog := fs.String("cluster-log", "", "durable job-log path (cluster mode; empty disables durability)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "cluster lease deadline; an unrenewed lease requeues its cells")
	batchSize := fs.Int("batch", 8, "cells per cluster lease")
	localWorkers := fs.Int("local-workers", 0, "in-process cluster workers to start (cluster mode)")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `asgdserve — sweep-as-a-service job server for the asyncsgd scenario-sweep
engine. POST sweep specs to /v1/sweeps, stream per-cell results from
/v1/sweeps/{id}/events, fetch the asgdbench/v2 aggregate from
/v1/sweeps/{id}/result, scrape Prometheus metrics from /metrics. See
DESIGN.md §6 for the JSON schemas and §7 for the observability contract.

Flags:
`)
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), `
Examples:
  asgdserve
  asgdserve -addr 127.0.0.1:9090 -queue 32
  asgdserve -cluster -local-workers 2
  asgdserve -cluster -cluster-log joblog -lease-ttl 15s -batch 4
  curl -s localhost:8080/healthz
  curl -s localhost:8080/metrics
  curl -s localhost:8080/cluster/v1/status
  curl -s -X POST localhost:8080/v1/sweeps -d '{}'
  curl -s -X POST localhost:8080/v1/sweeps -d '{"runtime":"hogwild","telemetry_ms":50}'
  curl -sN localhost:8080/v1/sweeps/j1/events
`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.String("asgdserve"))
		return nil
	}
	// serve.Config treats zero fields as "use the default" (the right
	// contract for a zero-value struct); explicit CLI flags must not be
	// silently replaced, so validate here and map "-cache 0" to the
	// config's explicit-disable form.
	if *queue < 1 {
		return fmt.Errorf("-queue %d: want ≥ 1", *queue)
	}
	if *history < 1 {
		return fmt.Errorf("-history %d: want ≥ 1", *history)
	}
	if *drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout %v: want > 0", *drainTimeout)
	}
	if *cacheSize < 0 {
		return fmt.Errorf("-cache %d: want ≥ 0 (0 disables)", *cacheSize)
	}
	if *cacheSize == 0 {
		*cacheSize = -1 // Config's explicit "caching disabled"
	}
	if !*clusterMode {
		if *clusterLog != "" || *localWorkers != 0 {
			return fmt.Errorf("-cluster-log and -local-workers require -cluster")
		}
	}
	if *localWorkers < 0 {
		return fmt.Errorf("-local-workers %d: want ≥ 0", *localWorkers)
	}
	if *leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl %v: want > 0", *leaseTTL)
	}
	if *batchSize < 1 {
		return fmt.Errorf("-batch %d: want ≥ 1", *batchSize)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	cfg := serve.Config{
		QueueDepth:   *queue,
		CacheSize:    *cacheSize,
		History:      *history,
		DrainTimeout: *drainTimeout,
	}
	if !*clusterMode {
		fmt.Fprintf(os.Stderr, "asgdserve %s listening on %s (queue %d, cache %d)\n",
			version.Version, *addr, *queue, *cacheSize)
		return serve.ListenAndServe(ctx, *addr, cfg)
	}

	// Cluster mode: the coordinator replaces the in-process executor and
	// journals to the durable log; recovery resubmits interrupted sweeps
	// before the listener opens, so no client can observe a half-replayed
	// queue.
	ccfg := cluster.Config{LeaseTTL: *leaseTTL, BatchSize: *batchSize}
	var (
		coord *cluster.Coordinator
		err   error
	)
	if *clusterLog != "" {
		coord, err = cluster.NewCoordinatorWithLog(ccfg, *clusterLog)
		if err != nil {
			return err
		}
	} else {
		coord = cluster.NewCoordinator(ccfg)
	}
	defer coord.Close()
	cfg.Dispatcher = coord
	cfg.Journal = coord
	s := serve.New(cfg)
	defer s.Close()
	recovered, err := coord.Recover(s)
	if err != nil {
		return fmt.Errorf("replaying job log: %w", err)
	}
	if len(recovered) > 0 {
		fmt.Fprintf(os.Stderr, "asgdserve: recovered %d interrupted job(s) from %s\n", len(recovered), *clusterLog)
	}
	for i := 0; i < *localWorkers; i++ {
		w := cluster.NewLocalWorker(coord, cluster.WorkerConfig{Name: fmt.Sprintf("local-%d", i)})
		go func() { _ = w.Run(ctx) }()
	}
	fmt.Fprintf(os.Stderr, "asgdserve %s listening on %s (cluster coordinator; queue %d, cache %d, lease %v, batch %d, local workers %d)\n",
		version.Version, *addr, *queue, *cacheSize, *leaseTTL, *batchSize, *localWorkers)
	return s.ListenAndServe(ctx, *addr, coord.Mount(s.Handler()))
}
