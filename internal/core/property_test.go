package core

import (
	"math"
	"testing"
	"testing/quick"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/vec"
)

// Property: under ANY random schedule and thread count, the paper's
// structural facts hold for lock-free SGD executions —
//   - exactly T iterations run and complete (wait-freedom via the counter),
//   - final memory equals x0 + Σ applied deltas (fetch&add conservation),
//   - Lemma 6.1: at most n iterations simultaneously incomplete,
//   - the total order covers all completed iterations,
//   - view staleness never exceeds interval contention τmax.
func TestPropertyEpochStructuralInvariants(t *testing.T) {
	f := func(seed uint64, nThreads, dimSel uint8) bool {
		n := int(nThreads%5) + 1
		d := int(dimSel%3) + 1
		const T = 60
		q, err := grad.NewIsoQuadratic(d, 1, 0.3, 3, nil)
		if err != nil {
			return false
		}
		res, err := RunEpoch(EpochConfig{
			Threads: n, TotalIters: T, Alpha: 0.05, Oracle: q,
			Policy: &sched.Random{R: rng.New(seed)},
			Seed:   seed ^ 0xABCD, Record: true, Track: true,
		})
		if err != nil {
			return false
		}
		if res.Tracker.Iterations() != T || res.Tracker.Completed() != T {
			return false
		}
		if len(res.Records) != T {
			return false
		}
		sum := res.X0.Clone()
		for _, rec := range res.Records {
			_ = sum.AddScaled(-rec.AlphaEff, rec.Grad)
		}
		if !vec.ApproxEqual(sum, res.FinalX, 1e-9) {
			return false
		}
		if res.Tracker.MaxIncomplete() > n {
			return false
		}
		if res.Tracker.TauMaxView() > contention.TauMax(res.Windows) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: determinism — identical configurations yield bit-identical
// final models, records and contention statistics.
func TestPropertyEpochDeterminism(t *testing.T) {
	f := func(seed uint64, budget uint8) bool {
		q, err := grad.NewIsoQuadratic(2, 1, 0.3, 3, nil)
		if err != nil {
			return false
		}
		run := func() *EpochResult {
			res, err := RunEpoch(EpochConfig{
				Threads: 3, TotalIters: 50, Alpha: 0.05, Oracle: q,
				Policy: &sched.MaxStale{Budget: int(budget % 16)},
				Seed:   seed, Record: true, Track: true,
			})
			if err != nil {
				return nil
			}
			return res
		}
		a, b := run(), run()
		if a == nil || b == nil {
			return false
		}
		if !vec.ApproxEqual(a.FinalX, b.FinalX, 0) {
			return false
		}
		if contention.TauMax(a.Windows) != contention.TauMax(b.Windows) ||
			a.Stats.Steps != b.Stats.Steps {
			return false
		}
		for i := range a.Records {
			if a.Records[i].FirstUp != b.Records[i].FirstUp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Lemma 6.2 and Lemma 6.4 hold under random schedules for any
// thread count (the lemmas are schedule-independent structural facts).
func TestPropertyLemmas62And64(t *testing.T) {
	f := func(seed uint64, nThreads uint8) bool {
		n := int(nThreads%6) + 2
		q, err := grad.NewIsoQuadratic(2, 1, 0.3, 3, nil)
		if err != nil {
			return false
		}
		res, err := RunEpoch(EpochConfig{
			Threads: n, TotalIters: 120, Alpha: 0.03, Oracle: q,
			Policy: &sched.Random{R: rng.New(seed)},
			Seed:   seed + 7, Track: true,
		})
		if err != nil {
			return false
		}
		for _, k := range []int{1, 2} {
			if contention.MaxBadCompletions(res.Windows, k, n) >= n {
				return false
			}
		}
		tauMax := contention.TauMax(res.Windows)
		bound := 2.0
		if tauMax > 0 {
			bound = 2 * math.Sqrt(float64(tauMax)*float64(n))
		}
		return float64(res.Tracker.DelayIndicatorMax()) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
