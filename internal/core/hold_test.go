package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"asyncsgd/internal/data"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
)

// perStep wraps a policy and zeroes the Hold of every decision, so the
// machine asks it on every step: the reference schedule a held run must
// replay step for step.
type perStep struct{ inner shm.Policy }

func (p perStep) Next(v *shm.View) shm.Decision {
	d := p.inner.Next(v)
	d.Hold = shm.RoleNone
	return d
}

// crashAt wraps a policy and crashes the given threads at the given
// machine times (thread id -> time), re-picking a live thread when the
// inner decision names one being crashed. It clears the inner decision's
// Hold: a held run would postpone a crash falling due inside it. The
// tests use it to crash threads at a machine time, where sched.Faulty
// crashes them at an iteration point.
type crashAt struct {
	inner shm.Policy
	times map[int]int

	fired map[int]bool
}

func (p *crashAt) Next(v *shm.View) shm.Decision {
	if p.fired == nil {
		p.fired = make(map[int]bool, len(p.times))
	}
	var crash []int
	for tid, at := range p.times {
		if !p.fired[tid] && v.Time() >= at {
			p.fired[tid] = true
			crash = append(crash, tid)
		}
	}
	// Map iteration order is random; d.Crash feeds the trajectory, so
	// two threads crashing at the same machine time must die in a fixed
	// order for runs to replay bit-identically.
	slices.Sort(crash)
	d := p.inner.Next(v)
	d.Hold = shm.RoleNone
	if slices.Contains(crash, d.Thread) {
		d.Thread = -1
		for i := 0; i < v.NumThreads(); i++ {
			if v.Live(i) && !slices.Contains(crash, i) {
				d.Thread = i
				break
			}
		}
	}
	d.Crash = append(d.Crash, crash...)
	return d
}

// Disciplines and policies of the schedule-equivalence cases.
var (
	scheduleDisciplines = []string{"lock-free", "bounded", "batch", "fence"}
	schedulePolicies    = []string{"round-robin", "max-stale", "stale-gradient", "crash-at", "faulty"}
)

// scheduleCase is one point of the space the window and hold tests
// sweep: thread count, pipeline, discipline and scheduling policy.
type scheduleCase struct {
	seed       uint64
	n          int
	sparse     bool
	discipline string
	policy     string
	budget     int              // MaxStale budget; StaleGradient delay
	crashAt    int              // crashAt machine time
	point      sched.CrashPoint // Faulty crash point
}

func (c scheduleCase) String() string {
	return fmt.Sprintf("seed=%d/n=%d/sparse=%v/%s/%s/budget=%d/crashAt=%d/point=%s",
		c.seed, c.n, c.sparse, c.discipline, c.policy, c.budget, c.crashAt, c.point)
}

// drawScheduleCase fills the seed-dependent fields of a case from r.
func drawScheduleCase(r *rng.Rand, n int, sparse bool, discipline, policy string) scheduleCase {
	return scheduleCase{
		seed:       r.Uint64(),
		n:          n,
		sparse:     sparse,
		discipline: discipline,
		policy:     policy,
		budget:     []int{1, 24}[r.Intn(2)],
		crashAt:    1 + r.Intn(300),
		point:      sched.CrashPoint(r.Intn(3)),
	}
}

// scheduleOracles returns the dense and sparse oracles the cases run on.
func scheduleOracles(t testing.TB) (dense, sparse grad.Oracle) {
	t.Helper()
	q, err := grad.NewIsoQuadratic(6, 1, 0.3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(404)
	ds, err := data.GenLinear(data.LinearConfig{Samples: 48, Dim: 12, NoiseStd: 0.05}, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.SparsifyRows(ds, 0.3, gen); err != nil {
		t.Fatal(err)
	}
	sls, err := grad.NewSparseLeastSquares(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	return q, sls
}

// config builds the case's epoch with a fresh policy.
func (c scheduleCase) config(dense, sparse grad.Oracle) EpochConfig {
	cfg := EpochConfig{
		Threads: c.n, TotalIters: 40, Alpha: 0.02, Oracle: dense,
		Seed: c.seed,
	}
	if c.sparse {
		cfg.Oracle, cfg.Sparse = sparse, true
	}
	switch c.discipline {
	case "bounded":
		cfg.StalenessBound = 2
	case "batch":
		cfg.Batch = 3
	case "fence":
		cfg.FenceEvery = 6
	}
	switch c.policy {
	case "round-robin":
		cfg.Policy = &sched.RoundRobin{}
	case "max-stale":
		cfg.Policy = &sched.MaxStale{Budget: c.budget}
	case "stale-gradient":
		cfg.Policy = &sched.StaleGradient{Victim: min(1, c.n-1), DelayIters: c.budget}
	case "crash-at":
		times := map[int]int{}
		if c.n > 1 { // the last live thread may not be crashed
			times[c.n-1] = c.crashAt
		}
		cfg.Policy = &crashAt{inner: &sched.MaxStale{Budget: c.budget}, times: times}
	case "faulty":
		// One crash with a parked spare to replace it; recovery keeps the
		// gated disciplines from wedging on the orphaned ticket.
		cfg.Threads = c.n + 1
		cfg.CrashRecovery = true
		cfg.Policy = &sched.Faulty{
			Crashes:     []sched.ThreadCrash{{Thread: 0, AfterIters: 2, Point: c.point}},
			Spares:      1,
			RejoinDelay: 5,
		}
	default:
		panic("unknown policy " + c.policy)
	}
	return cfg
}

// sameStep compares two step records, floats by their bits.
func sameStep(a, b shm.Step) bool {
	bits := math.Float64bits
	return a.Time == b.Time && a.Thread == b.Thread &&
		a.Req.Kind == b.Req.Kind && a.Req.Addr == b.Req.Addr && a.Req.Tag == b.Req.Tag &&
		bits(a.Req.Val) == bits(b.Req.Val) && bits(a.Req.Exp) == bits(b.Req.Exp) &&
		a.Res.Valid == b.Res.Valid && a.Res.OK == b.Res.OK && a.Res.Time == b.Res.Time &&
		bits(a.Res.Val) == bits(b.Res.Val)
}

// checkHoldMatchesPerStep runs the case twice, once as the policy decides
// and once through perStep, and requires identical step logs. It returns
// the held run's policy calls and steps, the calls without a trailing
// crash-only decision.
//
// A run whose last decision crashes the last live thread makes one policy
// call that executes no step (shm.Machine.Run stops at once), so each
// decision count may exceed its steps by that one call when the run ended
// with a thread crashed and none stalled.
func checkHoldMatchesPerStep(t testing.TB, c scheduleCase, dense, sparse grad.Oracle) (decisions, steps int) {
	t.Helper()
	held, err := runEpoch(c.config(dense, sparse), true)
	if err != nil {
		t.Fatalf("%v: held run: %v", c, err)
	}
	cfg := c.config(dense, sparse)
	cfg.Policy = perStep{cfg.Policy}
	ref, err := runEpoch(cfg, true)
	if err != nil {
		t.Fatalf("%v: per-step run: %v", c, err)
	}
	trailing := ref.Stats.Decisions - ref.Stats.Steps
	if trailing != 0 && (trailing != 1 || ref.Stats.Crashed == 0 || ref.Stats.Stalled != 0) {
		t.Fatalf("%v: per-step run made %d policy calls over %d steps",
			c, ref.Stats.Decisions, ref.Stats.Steps)
	}
	if held.Stats.Decisions > held.Stats.Steps+trailing {
		t.Fatalf("%v: held run made %d policy calls over %d steps",
			c, held.Stats.Decisions, held.Stats.Steps)
	}
	for i := 0; i < min(len(held.steps), len(ref.steps)); i++ {
		if !sameStep(held.steps[i], ref.steps[i]) {
			t.Fatalf("%v: step %d differs:\n held    %+v\n per-step %+v",
				c, i+1, held.steps[i], ref.steps[i])
		}
	}
	if len(held.steps) != len(ref.steps) {
		t.Fatalf("%v: held run has %d steps, per-step run %d", c, len(held.steps), len(ref.steps))
	}
	hs, rs := held.Stats, ref.Stats
	hs.Decisions, rs.Decisions = 0, 0
	if hs != rs {
		t.Fatalf("%v: stats differ: held %+v, per-step %+v", c, held.Stats, ref.Stats)
	}
	return held.Stats.Decisions - trailing, held.Stats.Steps
}

// TestHoldMatchesPerStepSchedule: a held decision (shm.Decision.Hold)
// replays the schedule its policy would have produced asked on every
// step — for the policies that hold (RoundRobin, MaxStale at budgets 1
// and 24), the one that forwards a hold (StaleGradient), the wrapper that
// must clear it (crashAt) and one that never holds (Faulty), on every
// thread count, pipeline and discipline.
func TestHoldMatchesPerStepSchedule(t *testing.T) {
	dense, sparse := scheduleOracles(t)
	r := rng.New(7)
	decisions := map[string]int{}
	steps := map[string]int{}
	for n := 1; n <= 4; n++ {
		for _, sp := range []bool{false, true} {
			for _, disc := range scheduleDisciplines {
				for _, pol := range schedulePolicies {
					for rep := 0; rep < 3; rep++ {
						dc, st := checkHoldMatchesPerStep(t, drawScheduleCase(r, n, sp, disc, pol), dense, sparse)
						decisions[pol] += dc
						steps[pol] += st
					}
				}
			}
		}
	}
	for _, pol := range schedulePolicies {
		t.Logf("%s: %.2f policy calls per step", pol, float64(decisions[pol])/float64(steps[pol]))
	}
	// The holds must actually fire, or the comparison proves nothing; and
	// the policies that may not hold must be asked on every step.
	for _, pol := range []string{"round-robin", "max-stale", "stale-gradient"} {
		if decisions[pol] >= steps[pol] {
			t.Errorf("%s: %d policy calls over %d steps; its decisions never hold",
				pol, decisions[pol], steps[pol])
		}
	}
	for _, pol := range []string{"crash-at", "faulty"} {
		if decisions[pol] != steps[pol] {
			t.Errorf("%s: %d policy calls over %d steps; its decisions must not hold",
				pol, decisions[pol], steps[pol])
		}
	}
}

// FuzzHoldMatchesPerStep drives the same comparison from fuzzed seeds,
// thread counts, budgets and disciplines, with the policy and pipeline
// drawn from the seed.
func FuzzHoldMatchesPerStep(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(2), uint8(24), uint8(1))
	f.Add(uint64(3), uint8(4), uint8(5), uint8(2))
	f.Add(uint64(4), uint8(3), uint8(0), uint8(3))
	dense, sparse := scheduleOracles(f)
	f.Fuzz(func(t *testing.T, seed uint64, n, budget, discipline uint8) {
		r := rng.New(seed)
		c := drawScheduleCase(r, 1+int(n%4), r.Intn(2) == 1,
			scheduleDisciplines[int(discipline)%len(scheduleDisciplines)],
			schedulePolicies[r.Intn(len(schedulePolicies))])
		c.budget = int(budget % 32)
		checkHoldMatchesPerStep(t, c, dense, sparse)
	})
}
