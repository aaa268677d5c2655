package sched

import (
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/shm"
)

// counterBody returns a Func program that performs `iters` tagged
// mini-iterations (counter FAA + one read + one update), mimicking the
// tag protocol of the SGD workers.
func counterBody(id, iters int) shm.Program {
	return shm.Func(func(th *shm.T) {
		for i := 0; i < iters; i++ {
			th.Annotate(contention.Tag{Thread: id, Iter: i, Role: contention.RoleCounter})
			th.FAA(0, 1)
			th.Annotate(contention.Tag{Thread: id, Iter: i, Role: contention.RoleRead})
			th.Read(1)
			th.Annotate(contention.Tag{
				Thread: id, Iter: i, Role: contention.RoleUpdate,
				Coord: 0, First: true, Last: true,
			})
			th.FAA(1, 1)
		}
	})
}

func runWith(t *testing.T, pol shm.Policy, progs ...shm.Program) (*shm.Machine, shm.RunStats) {
	t.Helper()
	m, err := shm.New(shm.Config{MemSize: 2, Trace: true}, pol, progs...)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

func TestRoundRobinAlternates(t *testing.T) {
	m, stats := runWith(t, &RoundRobin{}, counterBody(0, 5), counterBody(1, 5))
	if stats.Completed != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	tr := m.Trace()
	// Strict alternation 0,1,0,1,... while both live.
	for i := 0; i+1 < 2*5*3; i += 2 {
		if tr[i].Thread == tr[i+1].Thread {
			t.Fatalf("steps %d,%d both thread %d", i, i+1, tr[i].Thread)
		}
	}
}

func TestRandomSchedulesEveryoneAndIsDeterministic(t *testing.T) {
	run := func() []shm.Step {
		m, stats := runWith(t, &Random{R: rng.New(5)},
			counterBody(0, 20), counterBody(1, 20), counterBody(2, 20))
		if stats.Completed != 3 {
			t.Fatalf("stats = %+v", stats)
		}
		return m.Trace()
	}
	tr1, tr2 := run(), run()
	if len(tr1) != len(tr2) {
		t.Fatal("same seed, different trace lengths")
	}
	counts := make(map[int]int)
	for i := range tr1 {
		if tr1[i].Thread != tr2[i].Thread {
			t.Fatal("same seed, different schedule")
		}
		counts[tr1[i].Thread]++
	}
	for id := 0; id < 3; id++ {
		if counts[id] == 0 {
			t.Errorf("thread %d never scheduled", id)
		}
	}
}

func TestGeometricPauseCompletesAll(t *testing.T) {
	pol := &GeometricPause{R: rng.New(7), PauseProb: 0.3, Resume: 0.2}
	_, stats := runWith(t, pol, counterBody(0, 30), counterBody(1, 30))
	if stats.Completed != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestGeometricPauseAllPausedWakesEarliest(t *testing.T) {
	// PauseProb 1 pauses after every step; the policy must still make
	// progress by waking the earliest-resuming thread.
	pol := &GeometricPause{R: rng.New(9), PauseProb: 1, Resume: 0.5}
	_, stats := runWith(t, pol, counterBody(0, 10), counterBody(1, 10))
	if stats.Completed != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestStaleGradientHoldsVictimUpdate(t *testing.T) {
	pol := &StaleGradient{Victim: 1, DelayIters: 6}
	m, stats := runWith(t, pol, counterBody(0, 10), counterBody(1, 10))
	if stats.Completed != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Find the victim's first update in the trace; before it, thread 0
	// must have completed ≥ 6 full iterations (6 Last-updates).
	lastUpdates := 0
	for _, s := range m.Trace() {
		tg := s.Req.Tag
		if tg.Role == 0 {
			continue
		}
		if s.Thread == 1 && tg.Role == contention.RoleUpdate {
			break
		}
		if s.Thread == 0 && tg.Role == contention.RoleUpdate && tg.Last {
			lastUpdates++
		}
	}
	if lastUpdates < 6 {
		t.Errorf("victim released after only %d worker iterations, want ≥ 6", lastUpdates)
	}
}

func TestStaleGradientVictimGoneFallsBack(t *testing.T) {
	// Victim finishes immediately (0 iterations): the policy must degrade
	// to round-robin and complete everyone.
	pol := &StaleGradient{Victim: 1, DelayIters: 4}
	_, stats := runWith(t, pol, counterBody(0, 8), counterBody(1, 0))
	if stats.Completed != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMaxStaleInterposesStarts(t *testing.T) {
	pol := &MaxStale{Budget: 5}
	m, stats := runWith(t, pol, counterBody(0, 15), counterBody(1, 15))
	if stats.Completed != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Somewhere in the trace a victim update must be preceded by ≥ 5
	// other-thread counter claims since that victim's own claim.
	tr := m.Trace()
	bestGap := 0
	claimAt := map[int]int{} // thread -> index of its latest counter claim
	counts := map[int]int{}  // thread -> other-thread claims since its claim
	for _, s := range tr {
		tg := s.Req.Tag
		if tg.Role == 0 {
			continue
		}
		if tg.Role == contention.RoleCounter {
			claimAt[s.Thread] = 1
			counts[s.Thread] = 0
			for other := range counts {
				if other != s.Thread {
					counts[other]++
				}
			}
		}
		if tg.Role == contention.RoleUpdate && tg.First {
			if counts[s.Thread] > bestGap {
				bestGap = counts[s.Thread]
			}
		}
	}
	if bestGap < 5 {
		t.Errorf("max interposed starts = %d, want ≥ 5", bestGap)
	}
}

func TestMaxStaleSingleThreadDegenerates(t *testing.T) {
	pol := &MaxStale{Budget: 5}
	_, stats := runWith(t, pol, counterBody(0, 10))
	if stats.Completed != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// allocProbe forwards to inner and, on its tenth call, measures how many
// heap allocations one inner.Next makes against the live view.
type allocProbe struct {
	inner  shm.Policy
	calls  int
	allocs float64
}

func (p *allocProbe) Next(v *shm.View) shm.Decision {
	p.calls++
	if p.calls == 10 {
		p.allocs = testing.AllocsPerRun(100, func() { p.inner.Next(v) })
	}
	return p.inner.Next(v)
}

// TestPolicyNextAllocFree: the randomized policies draw their candidate
// threads into a reused buffer, so a scheduling decision allocates
// nothing.
func TestPolicyNextAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  shm.Policy
	}{
		{"random", &Random{R: rng.New(1)}},
		{"geometric-pause", &GeometricPause{R: rng.New(2), PauseProb: 0.2, Resume: 0.1}},
		{"quantum", &Quantum{Q: 1, R: rng.New(3)}},
	} {
		probe := &allocProbe{inner: tc.pol}
		runWith(t, probe, counterBody(0, 20), counterBody(1, 20), counterBody(2, 20))
		if probe.calls < 10 {
			t.Fatalf("%s: only %d policy calls", tc.name, probe.calls)
		}
		if probe.allocs != 0 {
			t.Errorf("%s: Next allocates %v times per call, want 0", tc.name, probe.allocs)
		}
	}
}
