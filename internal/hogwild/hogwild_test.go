package hogwild

import (
	"errors"
	"math"
	"testing"

	"asyncsgd/internal/contention"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// constOracle returns the constant gradient 1 in every coordinate; the
// final model is then −α·T/d·1 deterministic under ANY interleaving iff
// fetch&add loses no updates... actually exactly −α·T in every coordinate
// since every iteration updates all coordinates by −α.
type constOracle struct{ d int }

func (c constOracle) Dim() int                           { return c.d }
func (c constOracle) Value(vec.Dense) float64            { return 0 }
func (c constOracle) FullGrad(dst, _ vec.Dense)          { dst.Fill(1) }
func (c constOracle) Grad(dst, _ vec.Dense, _ *rng.Rand) { dst.Fill(1) }
func (c constOracle) Optimum() vec.Dense                 { return vec.NewDense(c.d) }
func (c constOracle) Constants() grad.Constants {
	return grad.Constants{C: 1, L: 1, M2: float64(c.d), R: 1}
}
func (c constOracle) CloneFor(int) grad.Oracle { return c }

var _ grad.Oracle = constOracle{}

func TestRunValidation(t *testing.T) {
	q := constOracle{d: 2}
	bad := []Config{
		{},
		{Workers: 0, TotalIters: 5, Alpha: 0.1, Oracle: q},
		{Workers: 1, TotalIters: 0, Alpha: 0.1, Oracle: q},
		{Workers: 1, TotalIters: 5, Alpha: 0, Oracle: q},
		{Workers: 1, TotalIters: 5, Alpha: 0.1, Oracle: q, X0: vec.Dense{1, 2, 3}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d accepted: %v", i, err)
		}
	}
}

// lockDisciplines are the paper's lock-free Algorithm 1 and the locking
// baseline it is contrasted with.
var lockDisciplines = []func() Strategy{NewLockFree, NewCoarseLock}

func TestNoLostUpdatesAllModes(t *testing.T) {
	// With a constant gradient, X_final[j] = −α·T exactly; any lost update
	// would show up as a deficit. This is the fetch&add guarantee the
	// paper says is necessary (a delayed plain write could erase work).
	const T, alpha = 20000, 0.001
	for _, mk := range lockDisciplines {
		for _, padded := range []bool{false, true} {
			res, err := Run(Config{
				Workers: 8, TotalIters: T, Alpha: alpha,
				Oracle: constOracle{d: 4}, Strategy: mk(), Padded: padded,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := -alpha * T
			for j, got := range res.Final {
				if math.Abs(got-want) > 1e-6*math.Abs(want) {
					t.Errorf("%v padded=%v: X[%d] = %v, want %v (lost updates)",
						res.Strategy, padded, j, got, want)
				}
			}
		}
	}
}

func TestConvergesOnQuadraticAllModes(t *testing.T) {
	q, err := grad.NewIsoQuadratic(4, 1, 0.2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range lockDisciplines {
		res, err := Run(Config{
			Workers: 4, TotalIters: 3000, Alpha: 0.05,
			Oracle: q, Seed: 3, Strategy: mk(),
			X0: vec.Dense{2, -2, 2, -2},
		})
		if err != nil {
			t.Fatal(err)
		}
		d2, err := vec.Dist2Sq(res.Final, q.Optimum())
		if err != nil {
			t.Fatal(err)
		}
		if d2 > 0.5 {
			t.Errorf("%v: final dist² = %v", res.Strategy, d2)
		}
		if res.UpdatesPerSec <= 0 || res.Iters != 3000 {
			t.Errorf("%v: result stats = %+v", res.Strategy, res)
		}
	}
}

// TestStalenessProbe: the interval contention over the SampleStaleness
// windows is non-negative, and its maximum bounds its mean.
func TestStalenessProbe(t *testing.T) {
	res, err := Run(Config{
		Workers: 8, TotalIters: 5000, Alpha: 0.001,
		Oracle: constOracle{d: 8}, SampleStaleness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 5000 {
		t.Fatalf("%d windows, want one per iteration (5000)", len(res.Windows))
	}
	if res.AvgStaleness < 0 || res.MaxStaleness < 0 {
		t.Errorf("staleness stats negative: %+v", res)
	}
	if float64(res.MaxStaleness) < res.AvgStaleness {
		t.Errorf("max %d < avg %v", res.MaxStaleness, res.AvgStaleness)
	}
}

// TestStalenessStatsOnePass pins Run's one pass over the interval
// contentions to the two-call form on the run's recorded windows: τavg
// is contention.TauAvg bit for bit, and τmax is contention.TauMax unless
// the strategy's staleness gauge wins.
func TestStalenessStatsOnePass(t *testing.T) {
	for _, mk := range []func() Strategy{
		func() Strategy { return NewLockFree() },
		func() Strategy { return NewBoundedStaleness(3) },
	} {
		strat := mk()
		res, err := Run(Config{
			Workers: 4, TotalIters: 4000, Alpha: 0.001, Seed: 5,
			Oracle: constOracle{d: 4}, Strategy: strat, SampleStaleness: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := contention.TauAvg(res.Windows); math.Float64bits(res.AvgStaleness) != math.Float64bits(want) {
			t.Errorf("%s: τavg %v, want %v", res.Strategy, res.AvgStaleness, want)
		}
		want := contention.TauMax(res.Windows)
		if sb, ok := strat.(StalenessBounded); ok {
			want = sb.ObservedMaxStaleness()
		}
		if res.MaxStaleness != want {
			t.Errorf("%s: MaxStaleness %d, want %d", res.Strategy, res.MaxStaleness, want)
		}
	}
}

// TestWindowsBoundAvgStaleness checks every SampleStaleness window —
// claim c's is [c+1, End] with c+1 ≤ End ≤ T — and the paper's τavg ≤ 2n
// on lock-free, coarse-lock and bounded-staleness runs. The windows give
// the tighter 2(n−1): a worker's own windows never overlap, so a claim
// lies inside at most one window of each other worker, and each
// overlapping pair is counted once from its later claim and once from
// its earlier one. One worker therefore reads 0 and 0.
func TestWindowsBoundAvgStaleness(t *testing.T) {
	const T = 3000
	strategies := map[string]func() Strategy{
		"lock-free":         func() Strategy { return NewLockFree() },
		"coarse-lock":       func() Strategy { return NewCoarseLock() },
		"bounded-staleness": func() Strategy { return NewBoundedStaleness(3) },
	}
	for name, mk := range strategies {
		for _, n := range []int{1, 2, 4, 8} {
			res, err := Run(Config{
				Workers: n, TotalIters: T, Alpha: 0.001, Seed: uint64(n),
				Oracle: constOracle{d: 4}, Strategy: mk(), SampleStaleness: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Windows) != T {
				t.Fatalf("%s n=%d: %d windows, want %d", name, n, len(res.Windows), T)
			}
			for c, w := range res.Windows {
				if w.Start != c+1 || w.FirstRead != w.Start || w.End < w.Start || w.End > T {
					t.Fatalf("%s n=%d: claim %d has window %+v, want [%d, ≤ %d]", name, n, c, w, c+1, T)
				}
			}
			if res.AvgStaleness > float64(2*(n-1)) {
				t.Errorf("%s n=%d: τavg = %v exceeds 2(n−1) = %d", name, n, res.AvgStaleness, 2*(n-1))
			}
			if n == 1 && (res.AvgStaleness != 0 || res.MaxStaleness != 0) {
				t.Errorf("%s: one worker reads τavg %v, staleness %d; want 0 and 0", name, res.AvgStaleness, res.MaxStaleness)
			}
		}
	}
}

func TestSingleWorkerMatchesSequential(t *testing.T) {
	// One worker, lock-free: must follow the exact sequential trajectory of
	// baseline SGD with the same stream (worker streams use Seed,id+1).
	q, err := grad.NewIsoQuadratic(2, 1, 0.3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Workers: 1, TotalIters: 200, Alpha: 0.05, Oracle: q, Seed: 9,
		X0: vec.Dense{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replay manually.
	r := rng.NewStream(9, 1)
	x := vec.Dense{1, 1}
	g := vec.NewDense(2)
	for i := 0; i < 200; i++ {
		q.Grad(g, x, r)
		_ = x.AddScaled(-0.05, g)
	}
	if !vec.ApproxEqual(res.Final, x, 1e-12) {
		t.Errorf("single worker diverged from sequential: %v vs %v", res.Final, x)
	}
}

// TestNilStrategyIsLockFree: a Config without a Strategy runs Algorithm 1
// — the same bits as an explicit NewLockFree(), under the same name.
func TestNilStrategyIsLockFree(t *testing.T) {
	q, err := grad.NewIsoQuadratic(8, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, TotalIters: 500, Alpha: 0.02, Oracle: q, Seed: 11}
	implicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = NewLockFree()
	explicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Strategy != "lock-free" {
		t.Errorf("nil Strategy ran %q, want lock-free", implicit.Strategy)
	}
	for i := range explicit.Final {
		if math.Float64bits(implicit.Final[i]) != math.Float64bits(explicit.Final[i]) {
			t.Errorf("coord %d: nil Strategy %v vs NewLockFree %v", i, implicit.Final[i], explicit.Final[i])
		}
	}
}
