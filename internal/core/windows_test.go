package core

import (
	"slices"
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
)

// TestWindowsMatchTracker: the admission windows the workers record give
// the same completed count and max admissions as the contention tracker
// attached to the same run, window by window, on every thread count,
// pipeline and discipline, under round-robin, MaxStale at budgets 1 and
// 24, and crash recovery under sched.Faulty with a spare.
func TestWindowsMatchTracker(t *testing.T) {
	dense, sparse := scheduleOracles(t)
	r := rng.New(11)
	var admitted, crashed int
	for n := 1; n <= 4; n++ {
		for _, sp := range []bool{false, true} {
			for _, disc := range scheduleDisciplines {
				for _, pol := range []string{"round-robin", "max-stale", "faulty"} {
					for rep := 0; rep < 3; rep++ {
						c := drawScheduleCase(r, n, sp, disc, pol)
						a, crash := checkWindowsMatchTracker(t, c, dense, sparse)
						admitted += a
						crashed += crash
					}
				}
			}
		}
	}
	// The cases must exercise overlapping iterations and crashes, or the
	// comparison proves little.
	if admitted == 0 || crashed == 0 {
		t.Fatalf("Σ max admissions = %d, Σ crashed = %d; want both > 0", admitted, crashed)
	}
}

// checkWindowsMatchTracker runs the case tracked and compares the
// result's Windows with the tracker's timelines, completions and
// admissions. It returns the max admissions and the crash count.
func checkWindowsMatchTracker(t *testing.T, c scheduleCase, dense, sparse grad.Oracle) (admitted, crashed int) {
	t.Helper()
	cfg := c.config(dense, sparse)
	cfg.Track = true
	res, err := RunEpoch(cfg)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if len(res.Windows) != cfg.TotalIters {
		t.Fatalf("%v: %d windows, want one per claimable iteration (%d)", c, len(res.Windows), cfg.TotalIters)
	}
	var want []contention.Window
	for _, tl := range res.Tracker.Timelines() {
		fr := 0
		for _, rt := range tl.ReadTimes {
			if rt > 0 && (fr == 0 || rt < fr) {
				fr = rt
			}
		}
		want = append(want, contention.Window{Start: tl.Start, FirstRead: fr, End: tl.End})
	}
	var got []contention.Window
	completed := 0
	for _, w := range res.Windows {
		if w.Start > 0 {
			got = append(got, w)
		}
		if w.End > 0 {
			completed++
		}
	}
	slices.SortFunc(got, func(a, b contention.Window) int { return a.Start - b.Start })
	if !slices.Equal(got, want) {
		t.Fatalf("%v: windows differ from the tracker's timelines:\n got  %v\n want %v", c, got, want)
	}
	if tc := res.Tracker.Completed(); completed != tc {
		t.Fatalf("%v: %d windows completed, tracker %d", c, completed, tc)
	}
	tm := res.Tracker.MaxAdmissionsDuring()
	if wm := contention.MaxAdmissions(res.Windows); wm != tm {
		t.Fatalf("%v: MaxAdmissions(Windows) = %d, tracker %d", c, wm, tm)
	}
	return tm, res.Stats.Crashed
}
