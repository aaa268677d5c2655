package core

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

// constGradOracle always returns gradient 1 on coordinates 0..k-1: the
// counting workload that makes lost or duplicated updates visible in the
// final model exactly.
type constGradOracle struct{ d, k int }

func (c constGradOracle) Dim() int                { return c.d }
func (c constGradOracle) Value(vec.Dense) float64 { return 0 }
func (c constGradOracle) FullGrad(dst, _ vec.Dense) {
	dst.Zero()
	for j := 0; j < c.k; j++ {
		dst[j] = 1
	}
}
func (c constGradOracle) Grad(dst, x vec.Dense, _ *rng.Rand) { c.FullGrad(dst, x) }
func (c constGradOracle) Optimum() vec.Dense                 { return vec.NewDense(c.d) }
func (c constGradOracle) Constants() grad.Constants {
	return grad.Constants{C: 1, L: 1, M2: float64(c.k), R: 1}
}
func (c constGradOracle) CloneFor(int) grad.Oracle { return c }

// TestDisciplineConfigValidation is the table-driven bad-config coverage
// for the simulator-side disciplines, mirroring the hogwild strategy
// validation: negative parameters, mutually exclusive disciplines, and
// combinations with the §8 extensions are rejected.
func TestDisciplineConfigValidation(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := EpochConfig{
		Threads: 2, TotalIters: 50, Alpha: 0.05, Oracle: q,
		Policy: &sched.RoundRobin{},
	}
	cases := []struct {
		name   string
		mutate func(*EpochConfig)
	}{
		{"negative staleness bound", func(c *EpochConfig) { c.StalenessBound = -1 }},
		{"negative batch", func(c *EpochConfig) { c.Batch = -2 }},
		{"negative fence", func(c *EpochConfig) { c.FenceEvery = -3 }},
		{"staleness+batch", func(c *EpochConfig) { c.StalenessBound = 2; c.Batch = 2 }},
		{"staleness+fence", func(c *EpochConfig) { c.StalenessBound = 2; c.FenceEvery = 8 }},
		{"batch+fence", func(c *EpochConfig) { c.Batch = 2; c.FenceEvery = 8 }},
		{"gate+momentum", func(c *EpochConfig) { c.StalenessBound = 2; c.Momentum = 0.5 }},
		{"batch+staleness-eta", func(c *EpochConfig) { c.Batch = 4; c.StalenessEta = 0.1 }},
		{"fence+momentum", func(c *EpochConfig) { c.FenceEvery = 8; c.Momentum = 0.5 }},
		{"gate+nil oracle", func(c *EpochConfig) { c.StalenessBound = 2; c.Oracle = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := RunEpoch(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("invalid config accepted: %v", err)
			}
		})
	}
}

// TestStalenessBoundCapsTauOnMachine: under both a fair policy and the
// max-staleness adversary, the gated run's claim-order staleness (the
// exact quantity the gate controls) must never exceed τ, the paper-order
// view staleness must stay within its 3τ ordering-skew envelope, every
// thread must finish (no stalls at MaxSteps), and every update must land
// (counting oracle).
func TestStalenessBoundCapsTauOnMachine(t *testing.T) {
	const T, alpha, k, d = 300, 0.001, 2, 6
	policies := map[string]func() shm.Policy{
		"round-robin": func() shm.Policy { return &sched.RoundRobin{} },
		"max-stale":   func() shm.Policy { return &sched.MaxStale{Budget: 40} },
	}
	for name, mk := range policies {
		for _, tau := range []int{1, 2, 5} {
			res, err := RunEpoch(EpochConfig{
				Threads: 3, TotalIters: T, Alpha: alpha,
				Oracle: constGradOracle{d: d, k: k}, Policy: mk(),
				Seed: 9, Track: true, StalenessBound: tau,
			})
			if err != nil {
				t.Fatalf("%s tau=%d: %v", name, tau, err)
			}
			if res.Stats.Stalled > 0 {
				t.Fatalf("%s tau=%d: %d threads stalled at MaxSteps", name, tau, res.Stats.Stalled)
			}
			if got := contention.MaxAdmissions(res.Windows); got > tau {
				t.Errorf("%s tau=%d: MaxAdmissionsDuring = %d exceeds the gate", name, tau, got)
			}
			if got := res.Tracker.TauMaxView(); got > 3*tau {
				t.Errorf("%s tau=%d: TauMaxView = %d exceeds the skew envelope", name, tau, got)
			}
			for j := 0; j < k; j++ {
				want := -alpha * T
				if math.Abs(res.FinalX[j]-want) > 1e-9*math.Abs(want) {
					t.Errorf("%s tau=%d: X[%d] = %v, want %v", name, tau, j, res.FinalX[j], want)
				}
			}
		}
	}
}

// TestStalenessBoundDefeatsStaleGradient is the Section-5-vs-gate story:
// the adversary wants to inject DelayIters ≫ τ of staleness, but every
// delay it interposes runs into the gate, so the measured staleness stays
// ≤ τ — the gate actively caps the quantity the Theorem 5.1 lower bound
// is driven by.
func TestStalenessBoundDefeatsStaleGradient(t *testing.T) {
	const tau, delay = 3, 40
	res, err := RunEpoch(EpochConfig{
		Threads: 2, TotalIters: delay + 5, Alpha: 0.05,
		Oracle: constGradOracle{d: 2, k: 1},
		Policy: &sched.StaleGradient{Victim: 1, DelayIters: delay},
		Seed:   4, Track: true, StalenessBound: tau,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stalled > 0 {
		t.Fatalf("%d threads stalled", res.Stats.Stalled)
	}
	if got := contention.MaxAdmissions(res.Windows); got > tau {
		t.Errorf("MaxAdmissionsDuring = %d, want ≤ %d despite a %d-iteration adversary",
			got, tau, delay)
	}
	if got := res.Tracker.TauMaxView(); got >= delay/2 {
		t.Errorf("TauMaxView = %d: the adversary injected its full delay through the gate", got)
	}
}

// TestBatchOnMachineFlushesEverything: batching must apply every gradient
// exactly once, including the terminal partial batch, and cut the shared
// update traffic to one scatter pass per batch.
func TestBatchOnMachineFlushesEverything(t *testing.T) {
	const alpha, k, d = 0.001, 3, 8
	for _, tc := range []struct{ T, b int }{{120, 4}, {123, 4}, {10, 100}} {
		res, err := RunEpoch(EpochConfig{
			Threads: 3, TotalIters: tc.T, Alpha: alpha,
			Oracle: constGradOracle{d: d, k: k}, Policy: &sched.RoundRobin{},
			Seed: 5, Batch: tc.b,
		})
		if err != nil {
			t.Fatalf("T=%d b=%d: %v", tc.T, tc.b, err)
		}
		for j := 0; j < k; j++ {
			want := -alpha * float64(tc.T)
			if math.Abs(res.FinalX[j]-want) > 1e-9*math.Abs(want) {
				t.Errorf("T=%d b=%d: X[%d] = %v, want %v (lost buffered updates)",
					tc.T, tc.b, j, res.FinalX[j], want)
			}
		}
	}
}

// TestBatchCoordOpsOnMachine checks the traffic accounting exactly on a
// single thread: T·d view reads plus k writes per full batch and per the
// terminal flush.
func TestBatchCoordOpsOnMachine(t *testing.T) {
	const T, b, k, d, alpha = 23, 4, 2, 5, 0.01
	res, err := RunEpoch(EpochConfig{
		Threads: 1, TotalIters: T, Alpha: alpha,
		Oracle: constGradOracle{d: d, k: k}, Policy: &sched.RoundRobin{},
		Batch: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	flushes := T/b + 1 // 5 full batches + terminal partial flush
	want := int64(T*d + flushes*k)
	if res.CoordOps != want {
		t.Errorf("CoordOps = %d, want %d", res.CoordOps, want)
	}
}

// TestBatchRecordsReconstructFinal: with Record on, the accumulator
// reconstruction over the recorded (batched) directions must land on the
// final model — i.e. flush records carry the whole batch and the terminal
// flush is recorded too.
func TestBatchRecordsReconstructFinal(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpoch(EpochConfig{
		Threads: 1, TotalIters: 37, Alpha: 0.05, Oracle: q,
		Policy: &sched.RoundRobin{}, Seed: 11, Record: true, Batch: 5,
		X0: vec.Constant(4, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	accs := res.Accumulators()
	last := accs[len(accs)-1]
	for j := range last {
		if math.Abs(last[j]-res.FinalX[j]) > 1e-12 {
			t.Fatalf("accumulator reconstruction %v != final %v", last, res.FinalX)
		}
	}
}

// TestFenceOnMachineConsistentEpochs: with fencing every E iterations the
// measured staleness cannot reach across an epoch boundary plus its
// interior: τ ≤ E−1 even under the adversary.
func TestFenceOnMachineConsistentEpochs(t *testing.T) {
	const T, E = 240, 8
	for name, mk := range map[string]func() shm.Policy{
		"round-robin": func() shm.Policy { return &sched.RoundRobin{} },
		"max-stale":   func() shm.Policy { return &sched.MaxStale{Budget: 50} },
	} {
		res, err := RunEpoch(EpochConfig{
			Threads: 3, TotalIters: T, Alpha: 0.001,
			Oracle: constGradOracle{d: 4, k: 1}, Policy: mk(),
			Seed: 2, Track: true, FenceEvery: E,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Stalled > 0 {
			t.Fatalf("%s: %d threads stalled", name, res.Stats.Stalled)
		}
		if got := contention.MaxAdmissions(res.Windows); got > E-1 {
			t.Errorf("%s: MaxAdmissionsDuring = %d, want ≤ %d", name, got, E-1)
		}
		if got := res.Tracker.TauMaxView(); got > E-1 {
			t.Errorf("%s: TauMaxView = %d, want ≤ %d", name, got, E-1)
		}
	}
}

// TestSparseWithGateOnMachine: the gate composes with the sparse update
// pipeline (reads restricted to the planned support).
func TestSparseWithGateOnMachine(t *testing.T) {
	q, err := grad.NewIsoQuadratic(6, 1, 0.2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := grad.NewSingleCoordinate(q)
	res, err := RunEpoch(EpochConfig{
		Threads: 3, TotalIters: 200, Alpha: 0.1, Oracle: sc,
		Policy: &sched.RoundRobin{}, Seed: 3, Track: true,
		Sparse: true, StalenessBound: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stalled > 0 {
		t.Fatalf("%d threads stalled", res.Stats.Stalled)
	}
	if got := contention.MaxAdmissions(res.Windows); got > 2 {
		t.Errorf("MaxAdmissionsDuring = %d, want ≤ 2", got)
	}
}
