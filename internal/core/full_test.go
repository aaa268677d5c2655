package core

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
)

func TestRunFullValidation(t *testing.T) {
	q := isoOracle(t, 2, 0.1)
	pf := func(int) shm.Policy { return &sched.RoundRobin{} }
	bad := []FullConfig{
		{},
		{Threads: 2, Epsilon: 0.1, Alpha0: 0.1, ItersPerEpoch: 10, Oracle: q}, // nil factory
		{Threads: 2, Epsilon: 0, Alpha0: 0.1, ItersPerEpoch: 10, Oracle: q, PolicyFactory: pf},
		{Threads: 2, Epsilon: 0.1, Alpha0: 0, ItersPerEpoch: 10, Oracle: q, PolicyFactory: pf},
	}
	for i, cfg := range bad {
		if _, err := RunFull(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d accepted: %v", i, err)
		}
	}
}

func TestFullSGDConvergesUnderBenignSchedule(t *testing.T) {
	q := isoOracle(t, 3, 0.3)
	res, err := RunFull(FullConfig{
		Threads: 3, Epsilon: 0.05, Alpha0: 0.2, ItersPerEpoch: 400,
		Oracle: q, Seed: 5,
		PolicyFactory: func(int) shm.Policy { return &sched.RoundRobin{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < 1 || len(res.EpochFinals) != res.Epochs {
		t.Fatalf("epochs bookkeeping: %d finals for %d epochs",
			len(res.EpochFinals), res.Epochs)
	}
	// Corollary 7.1: E‖r − x*‖ ≤ √ε; allow slack for a single trial.
	if res.FinalDist > 3*math.Sqrt(0.05) {
		t.Errorf("final distance %v, want ≤ ~%v", res.FinalDist, math.Sqrt(0.05))
	}
}

func TestFullSGDConvergesUnderAdversary(t *testing.T) {
	q := isoOracle(t, 2, 0.3)
	res, err := RunFull(FullConfig{
		Threads: 2, Epsilon: 0.05, Alpha0: 0.1, ItersPerEpoch: 500,
		Oracle: q, Seed: 11,
		PolicyFactory: func(int) shm.Policy { return &sched.MaxStale{Budget: 6} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDist > 3*math.Sqrt(0.05) {
		t.Errorf("adversarial final distance %v", res.FinalDist)
	}
}

func TestFullSGDHalvesAlphaAcrossEpochs(t *testing.T) {
	// Epoch finals should show decreasing jitter; directly verify the
	// number of epochs honours the override and that each epoch starts
	// from the previous final (continuity).
	q := isoOracle(t, 2, 0.2)
	res, err := RunFull(FullConfig{
		Threads: 2, Epsilon: 0.1, Alpha0: 0.2, ItersPerEpoch: 100,
		Oracle: q, Seed: 13, Epochs: 4,
		PolicyFactory: func(int) shm.Policy { return &sched.RoundRobin{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 4 {
		t.Errorf("epochs = %d, want 4 (override)", res.Epochs)
	}
	// Distances to optimum should broadly shrink epoch over epoch.
	d0, _ := distTo(q, res.EpochFinals[0])
	dl, _ := distTo(q, res.EpochFinals[len(res.EpochFinals)-1])
	if dl > d0+0.5 {
		t.Errorf("no progress across epochs: %v -> %v", d0, dl)
	}
}

func distTo(o grad.Oracle, x []float64) (float64, error) {
	xs := o.Optimum()
	var s float64
	for i := range xs {
		d := x[i] - xs[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

func TestLocalSumMatchesMemoryWhenComplete(t *testing.T) {
	// In a run that completes all updates, the Algorithm-2 local
	// accumulation must equal the shared memory contents exactly.
	q := isoOracle(t, 2, 0.2)
	res, err := RunEpoch(EpochConfig{
		Threads: 3, TotalIters: 90, Alpha: 0.05, Oracle: q,
		Policy: &sched.RoundRobin{}, Seed: 17, Accumulate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.FinalX {
		if math.Abs(res.LocalSum[j]-res.FinalX[j]) > 1e-9 {
			t.Fatalf("LocalSum %v != FinalX %v", res.LocalSum, res.FinalX)
		}
	}
}
