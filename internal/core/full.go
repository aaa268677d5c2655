package core

import (
	"fmt"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/martingale"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// FullConfig parameterizes Algorithm 2 (FullSGD): a sequence of EpochSGD
// runs with exponentially decreasing learning rate, epoch-fenced updates
// (each epoch is its own shm machine, so a gradient generated in one epoch
// can never be applied in another — the paper's DCAS / per-epoch-model
// condition), and a final epoch in which workers additionally accumulate
// their gradients locally so the returned model r contains every generated
// update, pending or not.
type FullConfig struct {
	Threads       int
	Epsilon       float64 // target squared distance ε
	Alpha0        float64 // initial learning rate α
	ItersPerEpoch int     // T
	Oracle        grad.Oracle
	Seed          uint64
	// PolicyFactory supplies a fresh scheduling policy per epoch (policies
	// are stateful). Required.
	PolicyFactory func(epoch int) shm.Policy
	// Epochs overrides the paper's epoch count
	// log(α²·M·n/√ε) (Corollary 7.1) when positive.
	Epochs int
}

// FullResult is the outcome of Algorithm 2.
type FullResult struct {
	R         vec.Dense // aggregated final model (line 9 of Algorithm 2)
	Epochs    int
	FinalDist float64 // ‖R − x*‖ against the oracle optimum
	// EpochFinals holds the shared model at the end of every epoch, for
	// convergence diagnostics.
	EpochFinals []vec.Dense
}

// RunFull executes Algorithm 2.
func RunFull(cfg FullConfig) (*FullResult, error) {
	if cfg.Threads <= 0 || cfg.Epsilon <= 0 || cfg.Alpha0 <= 0 ||
		cfg.ItersPerEpoch <= 0 || cfg.Oracle == nil || cfg.PolicyFactory == nil {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = martingale.EpochCount(cfg.Alpha0, cfg.Oracle.Constants(), cfg.Threads, cfg.Epsilon)
	}

	x := vec.NewDense(cfg.Oracle.Dim())
	alpha := cfg.Alpha0
	out := &FullResult{Epochs: epochs}
	for e := 0; e < epochs; e++ {
		last := e == epochs-1
		res, err := RunEpoch(EpochConfig{
			Threads:    cfg.Threads,
			TotalIters: cfg.ItersPerEpoch,
			Alpha:      alpha,
			Oracle:     cfg.Oracle,
			Policy:     cfg.PolicyFactory(e),
			Seed:       cfg.Seed + uint64(e)*0x9E3779B9,
			X0:         x,
			Accumulate: last,
		})
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		out.EpochFinals = append(out.EpochFinals, res.FinalX.Clone())
		if last {
			// Line 8–9: collect the entrywise sum of local accumulators,
			// which includes updates regardless of shared-memory state.
			out.R = res.LocalSum
		} else {
			x = res.FinalX
		}
		alpha /= 2 // line 5: halve the learning rate between epochs
	}
	dist, err := vec.Dist2(out.R, cfg.Oracle.Optimum())
	if err != nil {
		return nil, err
	}
	out.FinalDist = dist
	return out, nil
}
