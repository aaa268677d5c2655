package sched

import (
	"asyncsgd/internal/contention"
	"asyncsgd/internal/shm"
)

// StaleGradient is the Section-5 adversary behind the paper's Ω(τ) lower
// bound (Theorem 5.1). With two threads it realizes exactly the strategy
// from the paper's analysis:
//
//  1. let the victim read the initial model and compute its gradient (its
//     pending operation becomes the first model update of the target
//     iteration — the adversary, being strong, can see this);
//  2. freeze the victim and let the other thread(s) execute DelayIters full
//     SGD iterations;
//  3. release the victim, which now merges a gradient computed DelayIters
//     iterations ago, wiping out part of the progress.
//
// After the stale update is applied the policy degenerates to round-robin.
type StaleGradient struct {
	Victim     int // thread whose gradient is delayed
	DelayIters int // full iterations by other threads while frozen

	// HoldRole selects the pending-operation role at which the victim is
	// frozen. The default (RoleUpdate) freezes between gradient
	// generation and application — the strongest point, which also
	// defeats staleness-aware step scaling because the victim's staleness
	// probe (RoleProbe) has already executed. Setting RoleProbe freezes
	// before the probe, modeling an oblivious delay that staleness-aware
	// algorithms can detect and damp (the §8 / related-work discussion).
	HoldRole contention.Role

	phase     int // 0 advance victim, 1 delay, 2 release, 3 after
	completed int // other-thread iterations completed during phase 1
	rr        RoundRobin
}

var _ shm.Policy = (*StaleGradient)(nil)

func (p *StaleGradient) holdRole() contention.Role {
	if p.HoldRole == 0 {
		return contention.RoleUpdate
	}
	return p.HoldRole
}

// Next implements shm.Policy.
func (p *StaleGradient) Next(v *shm.View) shm.Decision {
	if !v.Live(p.Victim) && p.phase < 3 {
		p.phase = 3
	}
	switch p.phase {
	case 0: // run the victim until it is about to perform the held op
		if tg, ok := tagOf(v, p.Victim); ok && tg.Role == p.holdRole() {
			p.phase = 1
			return p.Next(v)
		}
		if gateBlocked(v, p.Victim) {
			// The victim is parked at a discipline gate; only other
			// threads' publishes can unblock it.
			if tid := p.otherLive(v); tid >= 0 {
				return shm.Decision{Thread: tid}
			}
		}
		return shm.Decision{Thread: p.Victim}
	case 1: // interpose DelayIters full iterations by other threads
		if p.completed >= p.DelayIters {
			p.phase = 2
			return p.Next(v)
		}
		tid := p.otherLive(v)
		if tid < 0 { // nobody else can make progress; release the victim
			p.phase = 2
			return p.Next(v)
		}
		if tg, ok := tagOf(v, tid); ok &&
			tg.Role == contention.RoleUpdate && tg.Last {
			p.completed++
		}
		return shm.Decision{Thread: tid}
	case 2: // flush the victim's stale iteration
		tg, ok := tagOf(v, p.Victim)
		if ok && tg.Role == contention.RoleUpdate && tg.Last {
			p.phase = 3
		}
		return shm.Decision{Thread: p.Victim}
	default:
		// rr holds (to the thread's end) only while a single thread is
		// live, and phase 3 keeps no state of its own, so its decision is
		// forwarded whole.
		return p.rr.Next(v)
	}
}

// otherLive returns a live non-victim thread that is not blocked at a
// discipline gate (round-robin), or -1. Gate-blocked threads cannot
// progress while the victim is held, so delaying against them is futile:
// a bounded-staleness gate exhausts the adversary after ~τ interposed
// iterations.
func (p *StaleGradient) otherLive(v *shm.View) int {
	n := v.NumThreads()
	for k := 1; k <= n; k++ {
		i := (p.rr.last + k) % n
		if i != p.Victim && v.Live(i) && !gateBlocked(v, i) {
			p.rr.last = i
			return i
		}
	}
	return -1
}

// MaxStale is a generic adaptive adversary operating under an interval-
// contention budget: it repeatedly picks a victim thread, freezes the
// victim right before its first model update, lets the remaining threads
// start up to Budget fresh iterations, then releases the victim — and
// rotates to the next victim. This produces executions whose measured τmax
// is ≈ Budget + n while keeping every thread live, i.e. the worst-case
// regime of Theorem 6.5 / Corollary 6.7.
//
// Its decisions hold (shm.Decision.Hold) wherever the per-step choice
// cannot change during the run: the victim over its view reads in phase
// 0, the victim over its updates up to the Last one in phase 2, and, when
// there is exactly one other thread (n = 2), that thread over its reads
// and updates in phase 1, which counts only counter claims and skips only
// gate-blocked threads. With more threads phase 1 rotates among them one
// step each, so it is asked every step. At n = 1 it forwards RoundRobin's
// decision, which holds to the thread's end (shm.HoldToEnd).
type MaxStale struct {
	Budget int // other-iteration starts to interpose per held iteration

	victim int
	phase  int // 0 advance victim, 1 delay, 2 release
	starts int // other-thread iteration starts during current hold
	rr     RoundRobin
}

var _ shm.Policy = (*MaxStale)(nil)

// Next implements shm.Policy.
func (p *MaxStale) Next(v *shm.View) shm.Decision {
	n := v.NumThreads()
	if n == 1 {
		return p.rr.Next(v)
	}
	// Rotate to a live victim if the current one finished or crashed.
	if !v.Live(p.victim) {
		if !p.rotate(v) {
			return p.rr.Next(v)
		}
	}
	switch p.phase {
	case 0:
		if tg, ok := tagOf(v, p.victim); ok && tg.Role == contention.RoleUpdate {
			p.phase, p.starts = 1, 0
			return p.Next(v)
		}
		if gateBlocked(v, p.victim) {
			// Advance someone else until a publish unblocks the victim.
			if tid := p.otherLive(v); tid >= 0 {
				return shm.Decision{Thread: tid}
			}
		}
		return shm.Decision{Thread: p.victim, Hold: contention.RoleRead}
	case 1:
		if p.starts >= p.Budget {
			p.phase = 2
			return p.Next(v)
		}
		tid := p.otherLive(v)
		if tid < 0 {
			p.phase = 2
			return p.Next(v)
		}
		tg, _ := tagOf(v, tid)
		if tg.Role == contention.RoleCounter {
			p.starts++
		}
		d := shm.Decision{Thread: tid}
		if n == 2 && p.starts < p.Budget {
			switch tg.Role {
			case contention.RoleCounter, contention.RoleRead:
				d.Hold = contention.RoleRead
			case contention.RoleUpdate:
				d.Hold = contention.RoleUpdate
			}
		}
		return d
	default: // release: step the victim up to and including its Last update
		tg, ok := tagOf(v, p.victim)
		if ok && tg.Role == contention.RoleUpdate && tg.Last {
			cur := p.victim
			p.rotate(v)
			p.phase = 0
			return shm.Decision{Thread: cur}
		}
		return shm.Decision{Thread: p.victim, Hold: contention.RoleUpdate}
	}
}

func (p *MaxStale) rotate(v *shm.View) bool {
	n := v.NumThreads()
	for k := 1; k <= n; k++ {
		i := (p.victim + k) % n
		if v.Live(i) {
			p.victim = i
			p.phase = 0
			return true
		}
	}
	return false
}

// otherLive returns a live non-victim thread that is not blocked at a
// discipline gate, or -1 (at which point holding the victim any longer is
// futile and the adversary releases it).
func (p *MaxStale) otherLive(v *shm.View) int {
	n := v.NumThreads()
	for k := 1; k <= n; k++ {
		i := (p.rr.last + k) % n
		if i != p.victim && v.Live(i) && !gateBlocked(v, i) {
			p.rr.last = i
			return i
		}
	}
	return -1
}
