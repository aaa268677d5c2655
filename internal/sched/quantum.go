package sched

import (
	"asyncsgd/internal/rng"
	"asyncsgd/internal/shm"
)

// Quantum models OS-style preemptive scheduling: the running thread keeps
// the (virtual) core for a quantum of Q consecutive shared-memory steps,
// then the scheduler switches to another live thread (uniformly at random,
// or round-robin when R is nil). With Q ≫ iteration length this produces
// the bursty, low-overlap executions typical of real machines — the §8
// "why asynchronous SGD is fast in practice" regime, where staleness stays
// near the number of in-flight iterations rather than anywhere near an
// adversarial τmax.
type Quantum struct {
	Q int       // steps per quantum (≤ 0 treated as 1)
	R *rng.Rand // optional randomization of the next thread

	cur  int
	left int
	rr   RoundRobin
	live []int // reused candidate buffer
}

var _ shm.Policy = (*Quantum)(nil)

// Next implements shm.Policy.
func (p *Quantum) Next(v *shm.View) shm.Decision {
	q := p.Q
	if q <= 0 {
		q = 1
	}
	if p.left > 0 && v.Live(p.cur) {
		p.left--
		return shm.Decision{Thread: p.cur}
	}
	// Pick the next thread to receive a quantum.
	n := v.NumThreads()
	next := -1
	if p.R != nil {
		p.live = p.live[:0]
		for i := 0; i < n; i++ {
			if v.Live(i) && i != p.cur {
				p.live = append(p.live, i)
			}
		}
		if len(p.live) == 0 && v.Live(p.cur) {
			next = p.cur
		} else if len(p.live) > 0 {
			next = p.live[p.R.Intn(len(p.live))]
		}
	} else {
		// Only rr's Thread: its Hold would skip the quantum countdown.
		next = p.rr.Next(v).Thread
	}
	if next < 0 {
		return shm.Decision{Thread: -1}
	}
	p.cur = next
	p.left = q - 1
	return shm.Decision{Thread: next}
}
