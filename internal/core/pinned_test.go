package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
)

// trackerStatisticsSHA256 is the digest of every tracker statistic over
// the cases of TestTrackerStatisticsPinned. It was recorded when the
// tracker was still fed one machine step at a time, so it pins the
// statistics built from the workers' iteration record to those bits.
const trackerStatisticsSHA256 = "ac31f4112a862ff4954ebf89f18f95d8fdc5edfabba1ba212ef7d360b0f3f463"

// TestTrackerStatisticsPinned hashes every contention statistic — the
// interval statistics over the windows and the Tracker's view statistics
// — of tracked runs over the schedule-case matrix (thread counts 1–4, dense
// and sparse pipelines, every discipline, round-robin, MaxStale and
// Faulty-with-recovery, three draws each), plus three runs at the edges
// of the iteration record: threads crashed mid-iteration (incomplete
// intervals end at the latest recorded iteration step, not at the
// machine's last step), a MaxSteps cap that stalls iterations mid-flight,
// and a batch run whose terminal flush applies updates no claimed
// iteration owns. Each case first checks that the claimed windows are a
// prefix in start order, the order the tracker keeps, then runs
// contention.MaxAdmissions over the result's Windows, which sorts them in
// place as the sweep does; the tracker must not see that sort, and the
// interval statistics read a claim-ordered copy taken before it.
func TestTrackerStatisticsPinned(t *testing.T) {
	dense, sparse := scheduleOracles(t)
	h := sha256.New()
	r := rng.New(11)
	var admitted, crashed int
	for n := 1; n <= 4; n++ {
		for _, sp := range []bool{false, true} {
			for _, disc := range scheduleDisciplines {
				for _, pol := range []string{"round-robin", "max-stale", "faulty"} {
					for rep := 0; rep < 3; rep++ {
						c := drawScheduleCase(r, n, sp, disc, pol)
						res := hashTrackedRun(t, h, c.String(), c.config(dense, sparse))
						admitted += contention.MaxAdmissions(res.Windows)
						crashed += res.Stats.Crashed
					}
				}
			}
		}
	}
	// The matrix must exercise overlapping iterations and crashes, or the
	// digest pins little.
	if admitted == 0 || crashed == 0 {
		t.Fatalf("Σ max admissions = %d, Σ crashed = %d; want both > 0", admitted, crashed)
	}

	crash := hashTrackedRun(t, h, "crash-at", EpochConfig{
		Threads: 4, TotalIters: 80, Alpha: 0.05, Oracle: isoOracle(t, 2, 0.1),
		Policy: &crashAt{inner: &sched.RoundRobin{}, times: map[int]int{0: 30, 2: 60}},
		Seed:   29,
	})
	if crash.Stats.Crashed != 2 || crash.Tracker.Completed() == crash.Tracker.Iterations() {
		t.Fatalf("crash-at: crashed %d, %d of %d iterations complete; want 2 crashes and an incomplete iteration",
			crash.Stats.Crashed, crash.Tracker.Completed(), crash.Tracker.Iterations())
	}

	capped := hashTrackedRun(t, h, "max-steps", EpochConfig{
		Threads: 3, TotalIters: 40, Alpha: 0.02, Oracle: dense,
		Policy: &sched.MaxStale{Budget: 3}, Seed: 5, MaxSteps: 157,
	})
	if capped.Stats.Stalled == 0 || capped.Tracker.Completed() == capped.Tracker.Iterations() {
		t.Fatalf("max-steps: %d stalled, %d of %d iterations complete; want a stall mid-iteration",
			capped.Stats.Stalled, capped.Tracker.Completed(), capped.Tracker.Iterations())
	}

	flush := hashTrackedRun(t, h, "terminal-flush", EpochConfig{
		Threads: 3, TotalIters: 40, Alpha: 0.02, Oracle: dense,
		Policy: &sched.RoundRobin{}, Seed: 7, Batch: 3,
	})
	if unowned := unownedUpdates(flush); unowned == 0 {
		t.Fatal("terminal-flush: every update belongs to a claimed iteration; want a terminal flush")
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != trackerStatisticsSHA256 {
		t.Errorf("tracker statistics digest = %s, want %s", got, trackerStatisticsSHA256)
	}
}

// hashTrackedRun runs cfg tracked with the step log kept, checks its
// windows, writes the case's statistics into h, and returns the result.
func hashTrackedRun(t *testing.T, h hash.Hash, label string, cfg EpochConfig) *EpochResult {
	t.Helper()
	cfg.Track = true
	res, err := runEpoch(cfg, true)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(res.Windows) != cfg.TotalIters {
		t.Fatalf("%s: %d windows, want one per claimable iteration (%d)", label, len(res.Windows), cfg.TotalIters)
	}
	for c := 1; c < len(res.Windows); c++ {
		if s, prev := res.Windows[c].Start, res.Windows[c-1].Start; s > 0 && !(prev > 0 && prev < s) {
			t.Fatalf("%s: claim %d started at %d, claim %d at %d", label, c, s, c-1, prev)
		}
	}
	n := cfg.Threads
	ws := slices.Clone(res.Windows)
	admissions := contention.MaxAdmissions(res.Windows)
	fmt.Fprintln(h, label, admissions)
	tr := res.Tracker
	fmt.Fprintln(h, tr.Iterations(), tr.Completed(), contention.IntervalContentions(ws),
		contention.TauMax(ws), math.Float64bits(contention.TauAvg(ws)), tr.Taus(), tr.TauMaxView(),
		tr.DelayIndicatorMax(), contention.MaxBadCompletions(ws, 1, n),
		contention.MaxBadCompletions(ws, 2, n), tr.MaxIncomplete(), tr.TouchedContentions(),
		tr.TauMaxTouched(), math.Float64bits(tr.TauAvgTouched()), admissions)
	for _, tl := range tr.Timelines() {
		fmt.Fprintf(h, "%+v\n", tl)
	}
	return res
}

// unownedUpdates counts the model updates in res's step log whose
// (thread, local iteration) matches no tracked iteration.
func unownedUpdates(res *EpochResult) int {
	owned := map[[2]int]bool{}
	for _, tl := range res.Tracker.Timelines() {
		owned[[2]int{tl.Thread, tl.LocalIter}] = true
	}
	k := 0
	for _, s := range res.steps {
		if s.Req.Tag.Role == shm.RoleUpdate && !owned[[2]int{s.Req.Tag.Thread, s.Req.Tag.Iter}] {
			k++
		}
	}
	return k
}
