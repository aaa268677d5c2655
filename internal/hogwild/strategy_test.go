package hogwild

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// constSparseOracle is a counting-friendly sparse oracle: every gradient
// reads and writes the same K coordinates with value 1, embedded in
// dimension d. The exact per-iteration cost of any strategy is therefore
// known in closed form.
type constSparseOracle struct {
	d, k int
}

func (c constSparseOracle) Dim() int                { return c.d }
func (c constSparseOracle) Value(vec.Dense) float64 { return 0 }
func (c constSparseOracle) FullGrad(dst, _ vec.Dense) {
	dst.Zero()
	for j := 0; j < c.k; j++ {
		dst[j] = 1
	}
}
func (c constSparseOracle) Grad(dst, x vec.Dense, r *rng.Rand) { c.FullGrad(dst, x) }
func (c constSparseOracle) Optimum() vec.Dense                 { return vec.NewDense(c.d) }
func (c constSparseOracle) Constants() grad.Constants {
	return grad.Constants{C: 1, L: 1, M2: float64(c.k), R: 1}
}
func (c constSparseOracle) CloneFor(int) grad.Oracle { return c }
func (c constSparseOracle) PlanSparse(*rng.Rand) []int {
	sup := make([]int, c.k)
	for j := range sup {
		sup[j] = j
	}
	return sup
}
func (c constSparseOracle) GradSparseAt(dst *vec.Sparse, vals []float64, _ *rng.Rand) {
	dst.Reset(c.d)
	for j := 0; j < c.k; j++ {
		dst.Append(j, 1)
	}
}

var _ grad.SparseOracle = constSparseOracle{}

func TestSparseLockFreeNoLostUpdates(t *testing.T) {
	const T, alpha, k = 20000, 0.001, 3
	res, err := Run(Config{
		Workers: 8, TotalIters: T, Alpha: alpha,
		Oracle: constSparseOracle{d: 16, k: k}, Strategy: NewSparseLockFree(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 16; j++ {
		want := 0.0
		if j < k {
			want = -alpha * T
		}
		if math.Abs(res.Final[j]-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("X[%d] = %v, want %v (lost updates)", j, res.Final[j], want)
		}
	}
	if res.Strategy != "sparse-lock-free" {
		t.Errorf("strategy name %q", res.Strategy)
	}
}

// TestSparseCoordOpsScaleWithNNZ is the counting-oracle acceptance check:
// the sparse lock-free path performs O(nnz) shared coordinate accesses
// per iteration — exactly 2k here (k reads + k writes) — independent of
// the model dimension, while the dense paths pay d per snapshot. Plain
// lock-free and coarse-lock stay dense on a sparse oracle.
func TestSparseCoordOpsScaleWithNNZ(t *testing.T) {
	const T, k = 500, 4
	for _, d := range []int{64, 512} {
		for _, tc := range []struct {
			mk   func() Strategy
			want int64
		}{
			{NewSparseLockFree, T * 2 * k},
			{NewLockFree, T * int64(d+k)},
			{NewCoarseLock, T * int64(d+k)},
		} {
			res, err := Run(Config{
				Workers: 2, TotalIters: T, Alpha: 0.01,
				Oracle: constSparseOracle{d: d, k: k}, Strategy: tc.mk(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.CoordOps != tc.want {
				t.Errorf("d=%d %s: CoordOps = %d, want %d", d, res.Strategy, res.CoordOps, tc.want)
			}
		}
	}
}

func TestSparseStrategyNeedsCapability(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Workers: 2, TotalIters: 100, Alpha: 0.05, Oracle: q, Strategy: NewSparseLockFree(),
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("dense oracle accepted by sparse strategy: %v", err)
	}
}

func TestStripedLockBadStripes(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Workers: 1, TotalIters: 10, Alpha: 0.05, Oracle: q,
		Strategy: NewStripedLock(-1),
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative stripe count accepted: %v", err)
	}
}

func TestCustomStrategyAndStripes(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Stripe counts below d (several coordinates per lock) must converge
	// like any other consistent-locking discipline.
	cfgs := []Config{
		{Workers: 4, TotalIters: 3000, Alpha: 0.05, Oracle: q, Seed: 3,
			Strategy: NewStripedLock(4), X0: vec.Constant(8, 1)},
		{Workers: 4, TotalIters: 3000, Alpha: 0.05, Oracle: q, Seed: 3,
			Strategy: NewStripedLock(2), X0: vec.Constant(8, 1)},
	}
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := vec.Dist2Sq(res.Final, q.Optimum())
		if err != nil {
			t.Fatal(err)
		}
		if d2 > 0.5 {
			t.Errorf("config %d: final dist² = %v", i, d2)
		}
		if res.Strategy != "striped-lock" {
			t.Errorf("config %d: strategy %q", i, res.Strategy)
		}
	}
}

// TestStrategyReusableAcrossSequentialRuns covers the RunFull pattern:
// the same Strategy value is re-Bind-ed every epoch.
func TestStrategyReusableAcrossSequentialRuns(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFull(FullConfig{
		Workers: 2, Epsilon: 0.1, Alpha0: 0.4, ItersPerEpoch: 1200,
		Oracle: q, Seed: 5, Strategy: NewStripedLock(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDist > 3*math.Sqrt(0.1) {
		t.Errorf("FullSGD with reused strategy: dist %v", res.FinalDist)
	}
}

// TestItersAndStalenessNotInflatedByOverclaims is the regression test for
// the over-claim bug: with W workers racing for a single iteration, W−1
// claims land past the budget (they are exits, not iterations). Iters
// must report completed iterations and the SampleStaleness windows must
// not count the phantom claims.
func TestItersAndStalenessNotInflatedByOverclaims(t *testing.T) {
	res, err := Run(Config{
		Workers: 8, TotalIters: 1, Alpha: 0.01,
		Oracle: constSparseOracle{d: 4, k: 2}, SampleStaleness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1 {
		t.Errorf("Iters = %d, want 1 (completed iterations)", res.Iters)
	}
	if len(res.Windows) != 1 || res.MaxStaleness != 0 {
		t.Errorf("%d windows, MaxStaleness = %d for a single iteration; want 1 and 0",
			len(res.Windows), res.MaxStaleness)
	}
}

func TestItersReportsCompleted(t *testing.T) {
	res, err := Run(Config{
		Workers: 4, TotalIters: 2500, Alpha: 0.01,
		Oracle: constSparseOracle{d: 4, k: 2}, SampleStaleness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 2500 {
		t.Errorf("Iters = %d, want 2500", res.Iters)
	}
	if res.MaxStaleness > 2500 {
		t.Errorf("MaxStaleness = %d exceeds the iteration budget", res.MaxStaleness)
	}
}
