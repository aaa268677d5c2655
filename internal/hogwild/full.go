package hogwild

import (
	"fmt"
	"time"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/martingale"
	"asyncsgd/internal/vec"
)

// FullConfig parameterizes the real-thread Algorithm 2: a sequence of
// lock-free epochs with halving learning rates. Epoch fencing is by
// construction — each epoch is a fresh Run whose workers have all joined
// before the next epoch starts, so a gradient generated in one epoch can
// never be applied in a later one (the paper's per-epoch-model condition).
type FullConfig struct {
	Workers       int
	Epsilon       float64
	Alpha0        float64
	ItersPerEpoch int
	Oracle        grad.Oracle
	Seed          uint64
	Strategy      Strategy // nil ⇒ lock-free (re-Bind-ed every epoch)
	Epochs        int      // 0 ⇒ the Corollary-7.1 count ⌈log₂(α²Mn/√ε)⌉
}

// FullResult is the outcome of the real-thread Algorithm 2. Beyond the
// final model it aggregates the per-epoch telemetry that Run reports for
// a single epoch, so an Algorithm-2 run is directly comparable to single
// runs in sweeps and benchmarks.
type FullResult struct {
	Final     vec.Dense
	Epochs    int
	FinalDist float64
	// Iters is the total number of completed iterations across all epochs.
	Iters int
	// CoordOps is the total shared model-coordinate traffic across epochs.
	CoordOps int64
	// Elapsed sums the epochs' run times (excluding between-epoch setup).
	Elapsed time.Duration
	// UpdatesPerSec is Iters/Elapsed.
	UpdatesPerSec float64
	// MaxStaleness is the largest staleness observed in any epoch (the
	// gated strategies' gauge; 0 for strategies that do not measure it).
	MaxStaleness int
}

// RunFull executes Algorithm 2 on real goroutines.
func RunFull(cfg FullConfig) (*FullResult, error) {
	if cfg.Workers <= 0 || cfg.Epsilon <= 0 || cfg.Alpha0 <= 0 ||
		cfg.ItersPerEpoch <= 0 || cfg.Oracle == nil {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = martingale.EpochCount(cfg.Alpha0, cfg.Oracle.Constants(), cfg.Workers, cfg.Epsilon)
	}
	x := vec.NewDense(cfg.Oracle.Dim())
	alpha := cfg.Alpha0
	full := &FullResult{Epochs: epochs}
	for e := 0; e < epochs; e++ {
		res, err := Run(Config{
			Workers:    cfg.Workers,
			TotalIters: cfg.ItersPerEpoch,
			Alpha:      alpha,
			Oracle:     cfg.Oracle,
			Seed:       cfg.Seed + uint64(e)*0x9E3779B9,
			Strategy:   cfg.Strategy,
			X0:         x,
		})
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		x = res.Final
		alpha /= 2
		full.Iters += res.Iters
		full.CoordOps += res.CoordOps
		full.Elapsed += res.Elapsed
		if res.MaxStaleness > full.MaxStaleness {
			full.MaxStaleness = res.MaxStaleness
		}
	}
	dist, err := vec.Dist2(x, cfg.Oracle.Optimum())
	if err != nil {
		return nil, err
	}
	full.Final = x
	full.FinalDist = dist
	if secs := full.Elapsed.Seconds(); secs > 0 {
		full.UpdatesPerSec = float64(full.Iters) / secs
	}
	return full, nil
}
