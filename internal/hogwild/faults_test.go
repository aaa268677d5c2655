package hogwild

import (
	"errors"
	"math"
	"testing"
	"time"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/vec"
)

func quadCfg(t *testing.T, workers, iters int) Config {
	t.Helper()
	q, err := grad.NewIsoQuadratic(4, 1, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Workers: workers, TotalIters: iters, Alpha: 0.05,
		Oracle: q, Seed: 17,
	}
}

func TestFaultPlanValidation(t *testing.T) {
	base := quadCfg(t, 2, 50)
	for name, plan := range map[string]FaultPlan{
		"worker out of range": {{Worker: 2}},
		"negative worker":     {{Worker: -1}},
		"duplicate worker":    {{Worker: 0}, {Worker: 0, AfterIters: 3}},
		"negative delay":      {{Worker: 0, AfterIters: -1}},
		"no survivor":         {{Worker: 0}, {Worker: 1}},
	} {
		cfg := base
		cfg.Faults = plan
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

// TestStripedWindowOrphanPinsGateUntilReclaimed is the
// demonstrate-then-fix regression for crash-safe ticket reclamation: a
// ticket abandoned by a dead worker pins the window's low-water mark, so
// a survivor's admission blocks exactly when the τ budget is exhausted —
// and resolves the moment the orphan is tombstoned (what ReclaimTicket
// does on the supervisor's behalf).
func TestStripedWindowOrphanPinsGateUntilReclaimed(t *testing.T) {
	var win stripedWindow
	win.reset()
	dead := win.register()
	live := win.register()
	tau := int64(1)
	minDone := func(ticket int64) int64 { return ticket - tau }

	// The victim dies holding ticket 0 — claimed, announced, never
	// released.
	if got := win.acquire(dead, minDone); got != 0 {
		t.Fatalf("victim acquired ticket %d, want 0", got)
	}

	// The survivor still gets ticket 1: the orphan is within the τ = 1
	// window.
	if got := win.acquire(live, minDone); got != 1 {
		t.Fatalf("survivor acquired ticket %d, want 1", got)
	}
	win.release(live)

	// Ticket 2 requires every ticket < 1 complete; the orphan pins the
	// low-water mark at 0, so the admission must block.
	acquired := make(chan int64)
	go func() { acquired <- win.acquire(live, minDone) }()
	select {
	case tk := <-acquired:
		t.Fatalf("acquired ticket %d while the orphaned ticket pinned the gate", tk)
	case <-time.After(50 * time.Millisecond):
	}

	// Reclamation tombstones the orphan; the blocked admission resolves.
	win.release(dead)
	select {
	case tk := <-acquired:
		if tk != 2 {
			t.Fatalf("unblocked admission got ticket %d, want 2", tk)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admission still blocked after the orphaned ticket was reclaimed")
	}
}

// TestPlannedCrashAlwaysFires: crash counts are functions of the plan
// alone — even when the scheduler would let the survivors finish the
// whole budget first, the victim still dies (at its exit point) and the
// run still completes every iteration.
func TestPlannedCrashAlwaysFires(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		cfg := quadCfg(t, 3, 200)
		cfg.Faults = FaultPlan{{Worker: 2, AfterIters: 5}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashed != 1 {
			t.Fatalf("trial %d: crashed = %d, want 1", trial, res.Crashed)
		}
		if res.Rejoined != 0 || res.RecoveredTickets != 0 {
			t.Fatalf("trial %d: rejoined=%d recovered=%d, want 0/0", trial, res.Rejoined, res.RecoveredTickets)
		}
		if res.Iters != cfg.TotalIters {
			t.Fatalf("trial %d: %d iters completed, want %d (survivors finish the budget)",
				trial, res.Iters, cfg.TotalIters)
		}
	}
}

// TestTicketCrashRecoveryKeepsLivenessAndTau: victims dying with
// in-flight tickets under the bounded-staleness gate are reclaimed by
// the supervisor, the survivors finish the whole budget (liveness), and
// the ≤ τ admission bound holds throughout.
func TestTicketCrashRecoveryKeepsLivenessAndTau(t *testing.T) {
	const tau = 2
	for trial := 0; trial < 3; trial++ {
		cfg := quadCfg(t, 4, 400)
		cfg.Strategy = NewBoundedStaleness(tau)
		cfg.Faults = FaultPlan{
			{Worker: 0, AfterIters: 3, InFlight: true},
			{Worker: 2, AfterIters: 6, InFlight: true},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashed != 2 || res.RecoveredTickets != 2 {
			t.Fatalf("trial %d: crashed=%d recovered=%d, want 2/2", trial, res.Crashed, res.RecoveredTickets)
		}
		if res.Iters != cfg.TotalIters {
			t.Fatalf("trial %d: %d iters, want %d — survivors stalled at the gate", trial, res.Iters, cfg.TotalIters)
		}
		if res.MaxStaleness > tau {
			t.Fatalf("trial %d: observed staleness %d exceeds τ=%d after recovery", trial, res.MaxStaleness, tau)
		}
	}
}

// TestRejoinSpawnsReplacement: a Rejoin fault brings a replacement
// worker in after the configured progress delay; the run completes with
// the replacement counted.
func TestRejoinSpawnsReplacement(t *testing.T) {
	cfg := quadCfg(t, 3, 300)
	cfg.Strategy = NewBoundedStaleness(3)
	cfg.Faults = FaultPlan{{Worker: 1, AfterIters: 4, InFlight: true, Rejoin: true, RejoinAfter: 5}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed != 1 || res.Rejoined != 1 || res.RecoveredTickets != 1 {
		t.Fatalf("crashed=%d rejoined=%d recovered=%d, want 1/1/1",
			res.Crashed, res.Rejoined, res.RecoveredTickets)
	}
	if res.Iters != cfg.TotalIters {
		t.Fatalf("%d iters, want %d", res.Iters, cfg.TotalIters)
	}
}

// TestCrashRejoinCoordOpsExact: every stepper's ops reach the total,
// the replacement's included. Lock-free on the constant gradient, each
// iteration reads and writes all d coordinates, so CoordOps is exactly
// 2·d·T whatever the interleaving, with and without live telemetry.
func TestCrashRejoinCoordOpsExact(t *testing.T) {
	const d, T = 6, 2000
	for _, telemetry := range []bool{false, true} {
		var last Telemetry
		cfg := Config{
			Workers: 3, TotalIters: T, Alpha: 0.001, Oracle: constOracle{d: d}, Seed: 5,
			Faults: FaultPlan{{Worker: 1, AfterIters: 5, Rejoin: true}},
		}
		if telemetry {
			cfg.OnTelemetry = func(tel Telemetry) { last = tel }
			cfg.TelemetryEvery = time.Millisecond
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashed != 1 || res.Rejoined != 1 || res.Iters != T {
			t.Fatalf("telemetry=%v: crashed=%d rejoined=%d iters=%d, want 1/1/%d",
				telemetry, res.Crashed, res.Rejoined, res.Iters, T)
		}
		if want := int64(2 * d * T); res.CoordOps != want {
			t.Errorf("telemetry=%v: CoordOps = %d, want 2·d·T = %d", telemetry, res.CoordOps, want)
		}
		if telemetry && (!last.Done || last.CoordOps != res.CoordOps) {
			t.Errorf("final snapshot %+v, want Done with CoordOps %d", last, res.CoordOps)
		}
	}
}

// TestStrategyBusyDetection: a Strategy value already bound by a
// concurrent Run is rejected with ErrStrategyBusy; sequential reuse is
// fine.
func TestStrategyBusyDetection(t *testing.T) {
	strat := NewBoundedStaleness(2)
	cfg := quadCfg(t, 2, 50)
	cfg.Strategy = strat

	// Simulate the concurrent holder the guard exists for.
	if _, loaded := activeStrategies.LoadOrStore(strat, true); loaded {
		t.Fatal("strategy unexpectedly already claimed")
	}
	if _, err := Run(cfg); !errors.Is(err, ErrStrategyBusy) {
		t.Fatalf("double-bound run: err = %v, want ErrStrategyBusy", err)
	}
	activeStrategies.Delete(strat)

	// Sequential reuse re-binds cleanly — twice.
	for i := 0; i < 2; i++ {
		if _, err := Run(cfg); err != nil {
			t.Fatalf("sequential reuse %d: %v", i, err)
		}
	}
}

// TestMedianAggregateConvergesAndSurvivesCrash: the coordinate-median
// defense makes progress on a quadratic, and a crashed member does not
// wedge the round barrier (Member.Leave retires it).
func TestMedianAggregateConvergesAndSurvivesCrash(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.05, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := vec.Constant(4, 2)
	run := func(plan FaultPlan) *Result {
		t.Helper()
		res, err := Run(Config{
			Workers: 3, TotalIters: 600, Alpha: 0.1, Oracle: q, Seed: 23,
			Strategy: NewMedianAggregate(), X0: x0, Faults: plan, FairYield: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run(nil)
	if start, end := q.Value(x0), q.Value(res.Final); !(end < start/2) || math.IsNaN(end) {
		t.Fatalf("median aggregate made no progress: %v -> %v", start, end)
	}

	crashed := run(FaultPlan{{Worker: 1, AfterIters: 10}})
	if crashed.Crashed != 1 {
		t.Fatalf("crashed = %d, want 1", crashed.Crashed)
	}
	if crashed.Iters != 600 {
		t.Fatalf("%d iters after a member crash, want 600 — the round barrier wedged", crashed.Iters)
	}
}
