package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
)

// This file defines the robustness axes of the sweep grid: crash/rejoin
// fault schedules (Faults), Byzantine gradient corruption (Byzantine)
// and the defenses (Defense). Each axis entry is a named recipe; the
// concrete fault plan / corruption roster for one cell is materialized
// from the cell seed at execution time, so victims and corrupt workers
// vary across replicates while reruns of the same spec+seed reproduce
// them exactly.

// Fault-axis timing constants: victims die after completing
// DefaultCrashAfter iterations (staggered by one per victim so crashes
// are distinct events), and replacements join once the global completion
// count has advanced DefaultRejoinAfter iterations past the crash.
const (
	DefaultCrashAfter  = 5
	DefaultRejoinAfter = 3
)

// machineRejoinDelay is the sched.Faulty spare-activation delay in
// machine steps (a machine step is one shared-memory op, so this is a
// few iterations' worth for small dimensions).
const machineRejoinDelay = 64

// Faults is one entry of the fault axis: a recipe for a seeded
// crash/rejoin schedule applied to a cell. On Hogwild cells it
// materializes a hogwild.FaultPlan; on Machine cells a sched.Faulty
// adversary plus core.EpochConfig.CrashRecovery — which also means
// fault-injected Machine cells override Spec.Policy.
// Victim count is clamped to workers−1 (someone must survive, the
// paper's n−1 crash bound); single-worker cells run fault-free.
type Faults struct {
	Name string
	// Crashes is the number of victim workers.
	Crashes int
	// Ticket makes victims die holding an in-flight gate ticket (the
	// low-water-mark-pinning crash; meaningful for window-gated
	// strategies, a plain mid-update crash otherwise).
	Ticket bool
	// Rejoin spawns a replacement worker per fired crash.
	Rejoin bool
}

// NoFaults is the neutral fault-axis entry.
func NoFaults() Faults { return Faults{Name: "none"} }

// ParseFaults parses a fault-axis label:
//
//	none | crash/<n> | crash/<n>/rejoin | ticket/<n> | ticket/<n>/rejoin
func ParseFaults(s string) (Faults, error) {
	if s == "none" || s == "" {
		return NoFaults(), nil
	}
	parts := strings.Split(s, "/")
	f := Faults{Name: s}
	switch parts[0] {
	case "crash":
	case "ticket":
		f.Ticket = true
	default:
		return Faults{}, fmt.Errorf("%w: faults %q (want none, crash/<n>[/rejoin] or ticket/<n>[/rejoin])", ErrBadSpec, s)
	}
	if len(parts) < 2 || len(parts) > 3 {
		return Faults{}, fmt.Errorf("%w: faults %q (want none, crash/<n>[/rejoin] or ticket/<n>[/rejoin])", ErrBadSpec, s)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return Faults{}, fmt.Errorf("%w: faults %q: crash count %q (want ≥ 1)", ErrBadSpec, s, parts[1])
	}
	f.Crashes = n
	if len(parts) == 3 {
		if parts[2] != "rejoin" {
			return Faults{}, fmt.Errorf("%w: faults %q: trailing %q (want rejoin)", ErrBadSpec, s, parts[2])
		}
		f.Rejoin = true
	}
	return f, nil
}

// none reports whether the entry is the neutral axis value.
func (f *Faults) none() bool { return f == nil || f.Crashes == 0 }

// victims draws the cell's victim set: min(Crashes, workers−1) distinct
// ids in [0, workers).
func (f *Faults) victims(workers int, r *rng.Rand) []int {
	n := f.Crashes
	if n > workers-1 {
		n = workers - 1
	}
	if n <= 0 {
		return nil
	}
	return r.Perm(workers)[:n]
}

// hogwildPlan materializes the fault plan for a Hogwild cell (nil when
// the recipe is neutral or the cell has a single worker).
func (f *Faults) hogwildPlan(workers int, r *rng.Rand) hogwild.FaultPlan {
	vs := f.victims(workers, r)
	if len(vs) == 0 {
		return nil
	}
	plan := make(hogwild.FaultPlan, len(vs))
	for i, v := range vs {
		plan[i] = hogwild.WorkerFault{
			Worker:      v,
			AfterIters:  DefaultCrashAfter + i,
			InFlight:    f.Ticket,
			Rejoin:      f.Rejoin,
			RejoinAfter: DefaultRejoinAfter,
		}
	}
	return plan
}

// machineFaulty materializes the scheduling adversary for a Machine
// cell, returning it with the number of spare threads to add to the
// config (nil when the recipe is neutral or the cell has one thread).
// Victims are drawn from the original worker ids [0, workers), so the
// spares — parked as the top ids — are never victims.
func (f *Faults) machineFaulty(workers int, r *rng.Rand) (*sched.Faulty, int) {
	vs := f.victims(workers, r)
	if len(vs) == 0 {
		return nil, 0
	}
	point := sched.CrashAtBoundary
	if f.Ticket {
		point = sched.CrashHoldingTicket
	}
	crashes := make([]sched.ThreadCrash, len(vs))
	for i, v := range vs {
		crashes[i] = sched.ThreadCrash{Thread: v, AfterIters: DefaultCrashAfter + i, Point: point}
	}
	spares := 0
	if f.Rejoin {
		spares = len(vs)
	}
	return &sched.Faulty{Crashes: crashes, Spares: spares, RejoinDelay: machineRejoinDelay}, spares
}

// ByzantineScale is the blow-up factor of the "scale" corruption mode.
const ByzantineScale = 10.0

// Byzantine is one entry of the gradient-corruption axis: f of the
// cell's workers emit mode-corrupted stochastic gradients (the roster is
// a seeded function of the cell seed; see grad.NewByzantine). Applies to
// both runtimes — the corruption lives in the oracle.
type Byzantine struct {
	Name string
	Mode grad.ByzantineMode // 0 ⇒ neutral entry
	F    int
}

// NoByzantine is the neutral corruption-axis entry.
func NoByzantine() Byzantine { return Byzantine{Name: "none"} }

// ParseByzantine parses a corruption-axis label:
//
//	none | signflip/<f> | scale/<f> | nan/<f>
func ParseByzantine(s string) (Byzantine, error) {
	if s == "none" || s == "" {
		return NoByzantine(), nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return Byzantine{}, fmt.Errorf("%w: byzantine %q (want none, signflip/<f>, scale/<f> or nan/<f>)", ErrBadSpec, s)
	}
	b := Byzantine{Name: s}
	switch parts[0] {
	case "signflip":
		b.Mode = grad.SignFlip
	case "scale":
		b.Mode = grad.ScaleBlowup
	case "nan":
		b.Mode = grad.NaNInject
	default:
		return Byzantine{}, fmt.Errorf("%w: byzantine %q: unknown mode %q", ErrBadSpec, s, parts[0])
	}
	f, err := strconv.Atoi(parts[1])
	if err != nil || f < 1 {
		return Byzantine{}, fmt.Errorf("%w: byzantine %q: corrupt count %q (want ≥ 1)", ErrBadSpec, s, parts[1])
	}
	b.F = f
	return b, nil
}

// none reports whether the entry is the neutral axis value.
func (b *Byzantine) none() bool { return b == nil || b.Mode == 0 || b.F == 0 }

// wrap applies the corruption to a cell's oracle. f is clamped to the
// worker count (every worker corrupt is allowed — the defense's problem).
func (b *Byzantine) wrap(oracle grad.Oracle, workers int, seed uint64) (grad.Oracle, error) {
	f := b.F
	if f > workers {
		f = workers
	}
	return grad.NewByzantine(oracle, b.Mode, f, workers, ByzantineScale, seed)
}

// Defense is one entry of the defense axis: per-update norm clipping
// (both runtimes — it wraps the oracle) or the coordinate-median robust
// aggregation (Hogwild only — it replaces the cell's strategy with
// hogwild.NewMedianAggregate; Machine cells pairing it report an error).
type Defense struct {
	Name string
	// ClipLimit > 0 wraps the cell oracle in grad.NewNormClip(limit).
	ClipLimit float64
	// Median replaces the Hogwild strategy with the coordinate-median
	// aggregator.
	Median bool
}

// NoDefense is the neutral defense-axis entry.
func NoDefense() Defense { return Defense{Name: "none"} }

// ParseDefense parses a defense-axis label:
//
//	none | clip/<limit> | median
func ParseDefense(s string) (Defense, error) {
	switch {
	case s == "none" || s == "":
		return NoDefense(), nil
	case s == "median":
		return Defense{Name: s, Median: true}, nil
	case strings.HasPrefix(s, "clip/"):
		lim, err := strconv.ParseFloat(s[len("clip/"):], 64)
		if err != nil || !(lim > 0) {
			return Defense{}, fmt.Errorf("%w: defense %q: clip limit (want finite > 0)", ErrBadSpec, s)
		}
		return Defense{Name: s, ClipLimit: lim}, nil
	default:
		return Defense{}, fmt.Errorf("%w: defense %q (want none, clip/<limit> or median)", ErrBadSpec, s)
	}
}

// none reports whether the entry is the neutral axis value.
func (d *Defense) none() bool { return d == nil || (!d.Median && d.ClipLimit == 0) }
