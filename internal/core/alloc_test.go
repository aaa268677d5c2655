package core

import (
	"testing"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/sched"
)

// TestMachineStepAmortizedAllocFree: the simulator's grant→execute→record
// loop allocates nothing per step. A run's allocations are O(threads + d)
// setup (workers, buffers, the machine itself), independent of how many
// steps execute — the concrete shm.Tag removed the per-operation
// interface boxing that used to dominate (one heap allocation per
// simulated step).
func TestMachineStepAmortizedAllocFree(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(iters int) (allocs float64, steps int) {
		var s int
		allocs = testing.AllocsPerRun(3, func() {
			res, err := RunEpoch(EpochConfig{
				Threads: 4, TotalIters: iters, Alpha: 0.05, Oracle: q,
				Policy: &sched.RoundRobin{}, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			s = res.Stats.Steps
		})
		return allocs, s
	}
	shortAllocs, shortSteps := run(100)
	longAllocs, longSteps := run(2000)
	if longSteps <= shortSteps {
		t.Fatalf("steps did not scale: %d vs %d", shortSteps, longSteps)
	}
	// Per-run setup cost is allowed; per-step cost is not: 19× the steps
	// must not add more than a handful of allocations (slack for the
	// testing harness itself).
	if extra := longAllocs - shortAllocs; extra > 8 {
		t.Errorf("allocations grew with steps: %v (short %v @ %d steps, long %v @ %d steps)",
			extra, shortAllocs, shortSteps, longAllocs, longSteps)
	}
	if perStep := longAllocs / float64(longSteps); perStep > 0.01 {
		t.Errorf("amortized allocs/step = %v, want < 0.01", perStep)
	}
}

// TestTrackedMachineStepAmortizedAllocFree is the same bound for a
// tracked run: the workers write the iteration record into storage sized
// up front from the budget and the dimension, and the tracker is built
// from it once, so recording a step allocates nothing either.
func TestTrackedMachineStepAmortizedAllocFree(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		_, err := RunEpoch(EpochConfig{
			Threads: 4, TotalIters: 500, Alpha: 0.05, Oracle: q,
			Policy: &sched.RoundRobin{}, Seed: 42, Track: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, run)
	// ~8500 steps and 500 tracked iterations per run: recording per
	// iteration or per step would be >1500 allocations (one reads and one
	// updates list per iteration); only the per-run setup remains.
	if allocs > 120 {
		t.Errorf("tracked run allocs = %v, want close to the ~50 setup allocations", allocs)
	}
}
