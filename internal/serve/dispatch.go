package serve

import (
	"context"

	"asyncsgd/internal/metrics"
	"asyncsgd/internal/sweep"
)

// Dispatcher is the execution backend of the job executor: given a
// validated request, it produces the asgdbench/v2 document, streaming
// per-cell results (and, when supported, telemetry samples) with
// document-global indices along the way. The default backend is the
// in-process sweep pool (localDispatcher); the cluster coordinator
// substitutes leased remote workers behind the same contract — the
// executor, the event streams, the result cache and the FIFO fairness
// observable cannot tell the difference, because the document assembly
// is shared (AssembleReport) and the per-cell deterministic fields are a
// pure function of (spec, seed) regardless of which process ran a cell.
//
// jobID identifies the job for backends that persist progress (the
// cluster coordinator keys its durable job log and crash-recovery state
// by it); the local backend ignores it. DispatchSweep must honor ctx:
// cancellation aborts the job (context.Canceled maps to the canceled
// terminal state exactly as in the local path).
type Dispatcher interface {
	DispatchSweep(ctx context.Context, jobID string, req SweepRequest,
		onCell func(sweep.CellResult), onTelemetry func(sweep.TelemetrySample)) (*Report, error)
}

// MetricsAttacher is an optional Dispatcher capability: a backend that
// exports its own metric families (the cluster coordinator's
// asgdserve_cluster_* set) registers them into the server's registry at
// construction, so GET /metrics renders one coherent document.
type MetricsAttacher interface {
	AttachMetrics(reg *metrics.Registry)
}

// Journal is the durability hook of the job queue: when set, the server
// reports every accepted submission and every terminal transition, in
// order, so a backend can persist queue state and recover it after a
// restart. JobSubmitted is invoked synchronously inside Submit, under
// the server lock, before the job becomes visible to the executor — a
// journaled job's submit record therefore always precedes any of its
// execution records. Cache-hit jobs are not journaled: they are terminal
// at birth and need no recovery. JobFinished fires once per journaled
// job with its terminal state (done, failed, canceled), in submission
// order for the jobs the executor ran: two jobs may be in dispatch at
// once, but a job's terminal transition waits for its predecessor's. A
// job canceled while queued fires at once.
type Journal interface {
	JobSubmitted(id string, req SweepRequest)
	JobFinished(id string, state string)
}

// localDispatcher is the in-process backend: the weighted sweep pool via
// RunRequestStream, exactly the pre-cluster executor path.
type localDispatcher struct{}

func (localDispatcher) DispatchSweep(ctx context.Context, _ string, req SweepRequest,
	onCell func(sweep.CellResult), onTelemetry func(sweep.TelemetrySample)) (*Report, error) {
	return RunRequestStream(ctx, req, onCell, onTelemetry)
}
