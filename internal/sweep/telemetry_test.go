package sweep

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestTelemetryStreamsPerCell: a hogwild sweep with OnTelemetry set
// delivers samples carrying valid cell coordinates, serialized with
// OnResult (the two share the emit mutex), and exactly one Done sample
// per hogwild cell — taken after that cell's workers exited.
func TestTelemetryStreamsPerCell(t *testing.T) {
	var (
		inFlight   atomic.Int32
		violations atomic.Int32
		samples    []TelemetrySample
		results    int
	)
	enter := func() {
		if inFlight.Add(1) != 1 {
			violations.Add(1)
		}
	}
	leave := func() { inFlight.Add(-1) }
	s := Spec{
		Seed:       13,
		Runtimes:   []Runtime{Hogwild},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{BoundedStaleness(4)},
		Workers:    []int{2},
		Alphas:     []float64{0.02},
		Replicates: 2,
		Iters:      20000,
		OnResult: func(CellResult) {
			enter()
			results++
			leave()
		},
		OnTelemetry: func(ts TelemetrySample) {
			enter()
			samples = append(samples, ts)
			leave()
		},
		TelemetryEvery: time.Millisecond,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if violations.Load() != 0 {
		t.Fatalf("%d concurrent OnResult/OnTelemetry invocations", violations.Load())
	}
	if results != len(res) {
		t.Fatalf("OnResult saw %d cells, want %d", results, len(res))
	}
	doneByCell := make(map[int]int)
	lastByCell := make(map[int]TelemetrySample)
	for _, ts := range samples {
		if ts.Index < 0 || ts.Index >= len(res) {
			t.Fatalf("sample carries out-of-range cell index %d", ts.Index)
		}
		if ts.Done {
			doneByCell[ts.Index]++
		}
		lastByCell[ts.Index] = ts
	}
	for i, r := range res {
		if r.Err != "" {
			t.Fatalf("cell %d: %s", i, r.Err)
		}
		if doneByCell[i] != 1 {
			t.Fatalf("cell %d got %d Done samples, want exactly 1", i, doneByCell[i])
		}
		last := lastByCell[i]
		if !last.Done {
			t.Fatalf("cell %d: a periodic sample arrived after the Done sample", i)
		}
		if last.Iters != r.Iters || last.CoordOps != r.CoordOps {
			t.Fatalf("cell %d: final sample (%d iters, %d ops) != result (%d, %d)",
				i, last.Iters, last.CoordOps, r.Iters, r.CoordOps)
		}
	}
}

// TestHogwildCellTimesItsWorkers: a hogwild cell's seconds are its
// workers' run time (hogwild.Result.Elapsed), which ends before the final
// telemetry snapshot is taken: they leave out hogwild.Run's setup and the
// τ statistics it computes over the Probe windows.
func TestHogwildCellTimesItsWorkers(t *testing.T) {
	var done TelemetrySample
	s := Spec{
		Seed:       13,
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{LockFree()},
		Workers:    []int{2},
		Alphas:     []float64{0.01},
		Iters:      20000,
		Probe:      true,
		OnTelemetry: func(ts TelemetrySample) {
			if ts.Done {
				done = ts
			}
		},
	}
	results, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != "" || !done.Done {
		t.Fatalf("cell %+v, final snapshot %+v", r, done)
	}
	if r.Seconds <= 0 || r.Seconds > done.Seconds {
		t.Errorf("cell seconds %v, want in (0, %v]: the final snapshot's time", r.Seconds, done.Seconds)
	}
	if r.UpdatesPerSec != float64(r.Iters)/r.Seconds {
		t.Errorf("updates/s %v, want %d iterations / %v s", r.UpdatesPerSec, r.Iters, r.Seconds)
	}
}

// TestTelemetrySilentOnMachineRuntime: the simulator has no live gauges;
// a machine sweep with OnTelemetry set must emit nothing rather than
// fabricate samples.
func TestTelemetrySilentOnMachineRuntime(t *testing.T) {
	var n atomic.Int32
	s := Spec{
		Seed:        5,
		Runtimes:    []Runtime{Machine},
		Oracles:     []Oracle{quadOracle()},
		Strategies:  []Strategy{BoundedStaleness(2)},
		Workers:     []int{2},
		Alphas:      []float64{0.05},
		Iters:       200,
		OnTelemetry: func(TelemetrySample) { n.Add(1) },
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 0 {
		t.Fatalf("machine sweep emitted %d telemetry samples", n.Load())
	}
}

// TestFillClampsNonPositiveGap: a float-noise-negative optimality gap is
// clamped to zero and flagged, not silently dropped — "converged to
// within float error" and "gap not computed" are different statements.
func TestFillClampsNonPositiveGap(t *testing.T) {
	oracle, x0, err := quadOracle().Make(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var atOpt CellResult
	atOpt.fill(oracle, oracle.Optimum(), time.Millisecond)
	if atOpt.FinalLoss != 0 || !atOpt.GapClamped {
		t.Fatalf("gap at the optimum: loss=%v clamped=%v, want 0/true",
			atOpt.FinalLoss, atOpt.GapClamped)
	}
	var away CellResult
	away.fill(oracle, x0, time.Millisecond)
	if away.FinalLoss <= 0 || away.GapClamped {
		t.Fatalf("gap away from the optimum: loss=%v clamped=%v, want >0/false",
			away.FinalLoss, away.GapClamped)
	}
}
