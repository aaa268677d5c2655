package hogwild

import (
	"fmt"
)

// This file defines the real-thread runtime's fault-injection surface:
// a deterministic per-worker crash/rejoin plan (Config.Faults) injected
// at the stepper boundary, plus the optional Stepper capabilities the
// plan drives — abandoning and reclaiming gate tickets (the crash-safe
// ticket reclamation of the window-gated disciplines) and leaving or
// joining a round-membership strategy (the coordinate-median defense).
// The machine-runtime counterparts are sched.Faulty and
// core.EpochConfig.CrashRecovery.

// WorkerFault is one planned crash. The victim worker dies immediately
// before claiming its (AfterIters+1)-th iteration — i.e. after completing
// exactly AfterIters steps — so the crash point is a deterministic
// function of the worker's own progress, never of scheduling.
type WorkerFault struct {
	// Worker is the victim's id in [0, Config.Workers).
	Worker int
	// AfterIters is the number of iterations the victim completes before
	// dying.
	AfterIters int
	// InFlight makes the victim die holding an acquired, unpublished gate
	// ticket (window-gated strategies only — the stepper must implement
	// TicketHolder; ignored otherwise). This is the crash that pins the
	// gate's low-water mark; Run's supervisor reclaims the orphan, so
	// survivors keep the ≤ τ admission bound (the bare deadlock is
	// demonstrated by the stripedWindow regression test instead).
	InFlight bool
	// Rejoin spawns a replacement worker after the crash.
	Rejoin bool
	// RejoinAfter delays the replacement until the global completion
	// count has advanced this many iterations past the crash (0 = rejoin
	// immediately). The replacement runs the same stepper protocol with a
	// fresh deterministic RNG stream and never re-crashes.
	RejoinAfter int
}

// FaultPlan is Config.Faults: a deterministic crash/rejoin schedule.
// Every field of every fault is explicit — drivers that want seeded fault
// placement (the sweep's faults axis) draw victims and crash iterations
// from their own seeded RNG and hand the materialized plan over, so a
// run's outcome is a function of (Config.Seed, plan) alone.
type FaultPlan []WorkerFault

// validate checks the plan against a run's worker count.
func (p FaultPlan) validate(workers int) error {
	seen := make(map[int]bool, len(p))
	for _, f := range p {
		if f.Worker < 0 || f.Worker >= workers {
			return fmt.Errorf("%w: fault worker %d (want in [0,%d))", ErrBadConfig, f.Worker, workers)
		}
		if seen[f.Worker] {
			return fmt.Errorf("%w: duplicate fault for worker %d", ErrBadConfig, f.Worker)
		}
		seen[f.Worker] = true
		if f.AfterIters < 0 || f.RejoinAfter < 0 {
			return fmt.Errorf("%w: negative fault delay in %+v", ErrBadConfig, f)
		}
	}
	if len(p) >= workers {
		return fmt.Errorf("%w: %d faults for %d workers (at least one worker must survive, mirroring the machine's n-1 crash bound)",
			ErrBadConfig, len(p), workers)
	}
	return nil
}

// faultFor returns the plan's fault for one worker, or nil.
func (p FaultPlan) faultFor(w int) *WorkerFault {
	for i := range p {
		if p[i].Worker == w {
			return &p[i]
		}
	}
	return nil
}

// rejoins counts faults that request a replacement worker.
func (p FaultPlan) rejoins() int {
	n := 0
	for _, f := range p {
		if f.Rejoin {
			n++
		}
	}
	return n
}

// TicketHolder is the optional Stepper capability behind
// WorkerFault.InFlight, implemented by the bounded-staleness and
// epoch-fence steppers. AbandonTicket acquires a gate ticket through the
// stepper's admission protocol and returns without releasing it — the
// worker then dies holding it, exactly the state a real crash leaves a
// window-gated discipline in. ReclaimTicket is the recovery: it
// publishes a tombstone for the dead worker's in-flight ticket
// (releasing its announce slot), letting the window's low-water mark
// advance past it. Run invokes ReclaimTicket from the supervisor, never
// from the dead worker's goroutine.
type TicketHolder interface {
	AbandonTicket()
	ReclaimTicket()
}

// Member is the optional Stepper capability of round-membership
// strategies (the coordinate-median defense). Run calls Join before a
// worker's first Step, and Leave on every exit, normal or crashed, so a
// strategy whose rounds barrier on membership never waits for a worker
// that is gone.
type Member interface {
	Join()
	Leave()
}
