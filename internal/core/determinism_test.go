package core

import (
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
)

// TestAdversaryDeterminism is the determinism regression suite for the
// simulated machine: with identical seeds, every scheduling policy must
// produce bit-identical result trajectories across two runs — the final
// model, the ordered iteration records (views, gradients, step sizes and
// machine times), and the per-step distance series. Policies are stateful,
// so each run gets a fresh value.
func TestAdversaryDeterminism(t *testing.T) {
	policies := []struct {
		name string
		mk   func() shm.Policy
	}{
		{"round-robin", func() shm.Policy { return &sched.RoundRobin{} }},
		{"random", func() shm.Policy { return &sched.Random{R: rng.New(77)} }},
		{"geometric-pause", func() shm.Policy {
			return &sched.GeometricPause{R: rng.New(78), PauseProb: 0.2, Resume: 0.5}
		}},
		{"stale-gradient", func() shm.Policy {
			return &sched.StaleGradient{Victim: 1, DelayIters: 6}
		}},
		{"max-stale", func() shm.Policy { return &sched.MaxStale{Budget: 6} }},
		{"crash-at", func() shm.Policy {
			return &crashAt{inner: &sched.RoundRobin{}, times: map[int]int{2: 40}}
		}},
		{"quantum", func() shm.Policy { return &sched.Quantum{Q: 7} }},
		{"quantum-random", func() shm.Policy { return &sched.Quantum{Q: 5, R: rng.New(79)} }},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			run := func() *EpochResult {
				res, err := RunEpoch(EpochConfig{
					Threads: 3, TotalIters: 120, Alpha: 0.05, Oracle: isoOracle(t, 8, 0.2),
					Policy: pc.mk(), Seed: 42, Record: true, Track: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			for j := range a.FinalX {
				if a.FinalX[j] != b.FinalX[j] {
					t.Fatalf("FinalX[%d]: %v vs %v", j, a.FinalX[j], b.FinalX[j])
				}
			}
			if len(a.Records) != len(b.Records) {
				t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
			}
			for i := range a.Records {
				ra, rb := &a.Records[i], &b.Records[i]
				if ra.Thread != rb.Thread || ra.LocalIter != rb.LocalIter ||
					ra.AlphaEff != rb.AlphaEff ||
					ra.FirstUp != rb.FirstUp || ra.LastUp != rb.LastUp {
					t.Fatalf("record %d metadata differs: %+v vs %+v", i, ra, rb)
				}
				for j := range ra.Grad {
					if ra.Grad[j] != rb.Grad[j] || ra.View[j] != rb.View[j] {
						t.Fatalf("record %d payload differs at coord %d", i, j)
					}
				}
			}
			sa := a.DistSqSeries(make([]float64, len(a.FinalX)))
			sb := b.DistSqSeries(make([]float64, len(b.FinalX)))
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("distance series diverges at t=%d: %v vs %v", i, sa[i], sb[i])
				}
			}
			if a.Stats.Steps != b.Stats.Steps || a.CoordOps != b.CoordOps {
				t.Fatalf("stats differ: %+v/%d vs %+v/%d", a.Stats, a.CoordOps, b.Stats, b.CoordOps)
			}
		})
	}
}

// TestContentionMonotoneInWorkers is the metamorphic contention
// invariant: under the fair round-robin schedule, adding threads can only
// increase the maximum interval contention τmax (more iterations overlap
// any given one). The run is deterministic, so the check is exact.
func TestContentionMonotoneInWorkers(t *testing.T) {
	prev, prevN := -1, 0
	for _, n := range []int{1, 2, 4, 8} {
		res, err := RunEpoch(EpochConfig{
			Threads: n, TotalIters: 400, Alpha: 0.05, Oracle: isoOracle(t, 8, 0.2),
			Policy: &sched.RoundRobin{}, Seed: 33,
		})
		if err != nil {
			t.Fatal(err)
		}
		cur := contention.TauMax(res.Windows)
		if cur < prev {
			t.Fatalf("τmax dropped from %d (n=%d) to %d (n=%d)", prev, prevN, cur, n)
		}
		prev, prevN = cur, n
	}
}
