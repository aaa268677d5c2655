package serve

import "asyncsgd/internal/metrics"

// serverMetrics is the Server's observability surface, rendered by
// GET /metrics in the Prometheus text format. Every metric is
// asgdserve_-prefixed; DESIGN.md §7 documents the full contract.
//
// The gauges that mirror /healthz (queue depth, cache entries) are
// GaugeFuncs reading the same state under the same lock, so the two
// endpoints can never disagree about a snapshot taken at the same
// instant.
type serverMetrics struct {
	reg *metrics.Registry

	// submissions counts every Submit call by outcome: accepted (job
	// enqueued), cache_hit (answered from the result cache without
	// queueing), rejected_full (429), rejected_draining (503),
	// rejected_invalid (400).
	submissions *metrics.CounterVec
	// jobsFinished counts jobs reaching a terminal state, by state
	// (done | failed | canceled). Cache hits count as done — they are
	// terminal at birth and join the finished order like any other job.
	jobsFinished *metrics.CounterVec
	// running counts jobs in dispatch: up to two, since job N+1's
	// dispatch starts while job N's runs.
	running *metrics.Gauge
	// queueWait is the submit→dispatch latency of executed jobs; it ends
	// when the job's dispatch starts, which may be while its predecessor
	// still runs (cache hits never wait and are not observed).
	queueWait *metrics.Histogram
	// cells / cellSeconds: completed grid cells and their per-cell
	// execution latency. cells/sec is rate(asgdserve_cells_completed_total).
	cells       *metrics.Counter
	cellSeconds *metrics.Histogram
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	// cellFaults counts robustness events observed by completed cells,
	// by kind (crashed, rejoined, recovered_tickets, stalled,
	// corrupted_updates, clipped_updates). All zero unless a sweep arms
	// the fault/byzantine/defense axes.
	cellFaults *metrics.CounterVec
	// subscribers is the number of currently open event streams.
	subscribers *metrics.Gauge
	// telemetrySamples counts "telemetry" events appended across jobs.
	telemetrySamples *metrics.Counter
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		submissions: reg.NewCounterVec("asgdserve_submissions_total",
			"sweep submissions by outcome (accepted, cache_hit, rejected_full, rejected_draining, rejected_invalid)",
			"outcome"),
		jobsFinished: reg.NewCounterVec("asgdserve_jobs_finished_total",
			"jobs reaching a terminal state, by state (done, failed, canceled)",
			"state"),
		running: reg.NewGauge("asgdserve_jobs_running",
			"jobs in dispatch (at most two: the running job and its successor)"),
		queueWait: reg.NewHistogram("asgdserve_queue_wait_seconds",
			"submit-to-dispatch latency of executed jobs", metrics.DefBuckets),
		cells: reg.NewCounter("asgdserve_cells_completed_total",
			"grid cells completed across all jobs"),
		cellSeconds: reg.NewHistogram("asgdserve_cell_seconds",
			"per-cell execution latency", metrics.DefBuckets),
		cellFaults: reg.NewCounterVec("asgdserve_cells_faults_total",
			"robustness events observed by completed cells, by kind (crashed, rejoined, recovered_tickets, stalled, corrupted_updates, clipped_updates)",
			"kind"),
		cacheHits: reg.NewCounter("asgdserve_cache_hits_total",
			"submissions answered from the result cache"),
		cacheMisses: reg.NewCounter("asgdserve_cache_misses_total",
			"cacheable submissions that missed the cache"),
		subscribers: reg.NewGauge("asgdserve_event_subscribers",
			"currently open event-stream connections"),
		telemetrySamples: reg.NewCounter("asgdserve_telemetry_samples_total",
			"live telemetry snapshots appended to job event streams"),
	}
	reg.NewGaugeFunc("asgdserve_queue_depth",
		"jobs queued and not yet in dispatch", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.pending))
		})
	reg.NewGaugeFunc("asgdserve_queue_capacity",
		"configured queue bound (submissions beyond it get 429)", func() float64 {
			return float64(s.cfg.QueueDepth)
		})
	reg.NewGaugeFunc("asgdserve_cache_entries",
		"sweep documents held in the LRU result cache", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.cache.len())
		})
	return m
}
