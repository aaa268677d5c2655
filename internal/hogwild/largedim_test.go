package hogwild

import (
	"fmt"
	"testing"

	"asyncsgd/internal/atomicfloat"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// This file holds the large-dimension hot-path coverage: layout
// cross-checks, the striped-gate race smoke at d = 10⁵, and the
// BenchmarkLargeDim* rows behind README's "Performance trajectory" d = 10⁶
// entries.
//
// The benchmarks use deliberately cheap oracles. grad.Quadratic draws a
// Normal() per coordinate per gradient — at d = 10⁶ the RNG would cost
// more than the shared-memory traffic the rows are meant to measure, so
// the dense bench oracle computes g as a pure function of the view and
// the sparse one reuses a fixed support plan.

// benchDenseOracle: g[j] = 0.1·x[j] + 1e-6, every coordinate non-zero
// (one maximal run), no per-coordinate RNG.
type benchDenseOracle struct{ d int }

func (o benchDenseOracle) Dim() int                { return o.d }
func (o benchDenseOracle) Value(vec.Dense) float64 { return 0 }
func (o benchDenseOracle) FullGrad(dst, x vec.Dense) {
	for j := range dst {
		dst[j] = 0.1*x[j] + 1e-6
	}
}
func (o benchDenseOracle) Grad(dst, x vec.Dense, _ *rng.Rand) { o.FullGrad(dst, x) }
func (o benchDenseOracle) Optimum() vec.Dense                 { return vec.Constant(o.d, -1e-5) }
func (o benchDenseOracle) Constants() grad.Constants {
	return grad.Constants{C: 1, L: 0.1, M2: float64(o.d), R: 1}
}
func (o benchDenseOracle) CloneFor(int) grad.Oracle { return o }

var _ grad.Oracle = benchDenseOracle{}

// benchSparseOracle touches a fixed contiguous block of k coordinates
// starting at a per-worker offset; PlanSparse returns a cached slice so
// the steady-state step stays allocation-free.
type benchSparseOracle struct {
	d, k, base int
	sup        []int
}

func newBenchSparseOracle(d, k, base int) *benchSparseOracle {
	o := &benchSparseOracle{d: d, k: k, base: base % (d - k)}
	o.sup = make([]int, k)
	for j := range o.sup {
		o.sup[j] = o.base + j
	}
	return o
}

func (o *benchSparseOracle) Dim() int                { return o.d }
func (o *benchSparseOracle) Value(vec.Dense) float64 { return 0 }
func (o *benchSparseOracle) FullGrad(dst, _ vec.Dense) {
	dst.Zero()
	for _, j := range o.sup {
		dst[j] = 1e-3
	}
}
func (o *benchSparseOracle) Grad(dst, x vec.Dense, _ *rng.Rand) { o.FullGrad(dst, x) }
func (o *benchSparseOracle) Optimum() vec.Dense                 { return vec.NewDense(o.d) }
func (o *benchSparseOracle) Constants() grad.Constants {
	return grad.Constants{C: 1, L: 1, M2: float64(o.k), R: 1}
}
func (o *benchSparseOracle) CloneFor(w int) grad.Oracle {
	return newBenchSparseOracle(o.d, o.k, o.base+w*o.k)
}
func (o *benchSparseOracle) PlanSparse(*rng.Rand) []int { return o.sup }
func (o *benchSparseOracle) GradSparseAt(dst *vec.Sparse, _ []float64, _ *rng.Rand) {
	dst.Reset(o.d)
	for _, j := range o.sup {
		dst.Append(j, 1e-3)
	}
}

var _ grad.SparseOracle = (*benchSparseOracle)(nil)

// TestLayoutsBitIdentical is the cross-layout golden check of the
// acceptance criteria: the memory layout is invisible to the arithmetic,
// so a single-worker trajectory must produce bit-identical final models
// on the compact and the padded vector — for the dense strategies, the
// gated disciplines and the sparse pipeline alike.
func TestLayoutsBitIdentical(t *testing.T) {
	const d, iters = 512, 200
	quad, err := grad.NewIsoQuadratic(d, 1, 0.3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sparse := newBenchSparseOracle(d, 32, 5)
	cases := []struct {
		name   string
		mk     func() Strategy
		oracle grad.Oracle
	}{
		{"lock-free", NewLockFree, quad},
		{"striped-lock", func() Strategy { return NewStripedLock(64) }, quad},
		{"bounded-staleness", func() Strategy { return NewBoundedStaleness(3) }, quad},
		{"epoch-fence", func() Strategy { return NewEpochFence(16) }, quad},
		{"update-batching", func() Strategy { return NewUpdateBatching(4) }, quad},
		{"sparse-lock-free", NewSparseLockFree, sparse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref vec.Dense
			for _, padded := range []bool{false, true} {
				res, err := Run(Config{
					Workers: 1, TotalIters: iters, Alpha: 0.02,
					Oracle: tc.oracle, Seed: 11,
					Strategy: tc.mk(), Padded: padded,
				})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res.Final
					continue
				}
				for j := range ref {
					if res.Final[j] != ref[j] {
						t.Fatalf("padded: final[%d] = %x, want %x (bit mismatch vs compact)",
							j, res.Final[j], ref[j])
					}
				}
			}
		})
	}
}

// TestStripedGateRaceSmokeLargeDim mirrors the ordered-window liveness
// test one magnitude up: 8 workers share a τ=2 gate over a d = 10⁵
// model (sparse oracle so the race detector instruments gate traffic,
// not 10⁵ coordinate ops per iteration). The run must terminate, apply
// every iteration, and hold the exact ≤ τ bound.
func TestStripedGateRaceSmokeLargeDim(t *testing.T) {
	const d, workers, tau, iters = 100_000, 8, 2, 4000
	strat := NewBoundedStaleness(tau)
	res, err := Run(Config{
		Workers: workers, TotalIters: iters, Alpha: 0.001,
		Oracle: newBenchSparseOracle(d, 64, 0), Seed: 23,
		Strategy: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != iters {
		t.Fatalf("completed %d iterations, want %d (gate lost or stuck tickets)", res.Iters, iters)
	}
	sb := strat.(StalenessBounded)
	if obs := sb.ObservedMaxStaleness(); obs > tau {
		t.Fatalf("observed staleness %d exceeds bound τ=%d", obs, tau)
	}
	if res.MaxStaleness > tau {
		t.Fatalf("result gauge %d exceeds bound τ=%d", res.MaxStaleness, tau)
	}
}

// TestStripedGateDenseLargeDim drives the gate with the dense bulk-apply
// path at d = 10⁵ — few iterations (each one scans the model twice), but
// enough for workers to contend on admission under -race.
func TestStripedGateDenseLargeDim(t *testing.T) {
	const d, workers, tau, iters = 100_000, 8, 2, 48
	res, err := Run(Config{
		Workers: workers, TotalIters: iters, Alpha: 0.01,
		Oracle: benchDenseOracle{d: d}, Seed: 29,
		Strategy: NewBoundedStaleness(tau),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != iters {
		t.Fatalf("completed %d iterations, want %d", res.Iters, iters)
	}
	if res.MaxStaleness > tau {
		t.Fatalf("observed staleness %d exceeds bound τ=%d", res.MaxStaleness, tau)
	}
}

// TestLargeDimStepAllocFree extends the steady-state allocation pin to
// the banked layout at d = 10⁵: the bulk-apply kernels must not allocate
// no matter how large the runs get.
func TestLargeDimStepAllocFree(t *testing.T) {
	const d = 100_000
	cases := []struct {
		name   string
		mk     func() Strategy
		oracle grad.Oracle
	}{
		{"lock-free-dense", NewLockFree, benchDenseOracle{d: d}},
		{"bounded-staleness-dense", func() Strategy { return NewBoundedStaleness(4) }, benchDenseOracle{d: d}},
		{"sparse-lock-free", NewSparseLockFree, newBenchSparseOracle(d, 256, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			strat := tc.mk()
			model := atomicfloat.New(d, atomicfloat.Banked)
			if err := strat.Bind(model, 0.001); err != nil {
				t.Fatal(err)
			}
			st, err := strat.NewStepper(0, tc.oracle.CloneFor(0), rng.NewStream(7, 1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ { // warm buffers
				st.Step()
			}
			if n := testing.AllocsPerRun(16, func() { st.Step() }); n != 0 {
				t.Errorf("Step allocates %v per run at d=%d, want 0", n, d)
			}
		})
	}
}

// legacyScalar reproduces the pre-PR dense apply byte for byte: one
// FetchAdd call per non-zero gradient coordinate, no run batching. Runs
// against the padded layout (what the old code allocated whenever
// padding was requested), it is the "before" row of the historical
// d = 10⁶ dense benchmarks in README's "Performance trajectory"; the
// arithmetic is identical to the bulk kernel, so before/after compare
// pure code-path + layout cost.
type legacyScalar struct {
	model *atomicfloat.Vector
	alpha float64
}

func (s *legacyScalar) Name() string { return "legacy-scalar" }
func (s *legacyScalar) Bind(model *atomicfloat.Vector, alpha float64) error {
	s.model, s.alpha = model, alpha
	return nil
}
func (s *legacyScalar) NewStepper(_ int, oracle grad.Oracle, r *rng.Rand) (Stepper, error) {
	d := s.model.Dim()
	return &legacyScalarStepper{
		s: s, oracle: oracle, r: r,
		view: vec.NewDense(d), g: vec.NewDense(d),
	}, nil
}

type legacyScalarStepper struct {
	s      *legacyScalar
	oracle grad.Oracle
	r      *rng.Rand
	view   vec.Dense
	g      vec.Dense
}

func (w *legacyScalarStepper) Step() int {
	m := w.s.model
	m.LoadAll(w.view)
	w.oracle.Grad(w.g, w.view, w.r)
	ops := len(w.view)
	for j, gj := range w.g {
		if gj != 0 {
			m.FetchAdd(j, -w.s.alpha*gj)
			ops++
		}
	}
	return ops
}

// benchDenseVariants maps the historical d = 10⁶ before/after rows:
// padded-scalar is the old hot path (padded layout, per-coordinate
// FetchAdd), padded isolates the bulk kernel on the old layout, banked
// is the compact layout every unpadded run uses.
var benchDenseVariants = []struct {
	name   string
	padded bool
	strat  func() Strategy // nil ⇒ the current lock-free strategy
}{
	{"padded-scalar", true, func() Strategy { return &legacyScalar{} }},
	{"padded", true, nil},
	{"banked", false, nil},
}

// benchLayouts is the layout-only axis for the gated and sparse rows.
var benchLayouts = []struct {
	name   string
	padded bool
}{
	{"padded", true},
	{"banked", false},
}

// BenchmarkLargeDimDense measures whole dense lock-free runs (8 workers,
// fixed iteration budget) at d ∈ {10⁵, 10⁶} on both layouts. ns/op is
// dominated by the view-scan + bulk-apply memory traffic; the padded
// rows carry 8x the working set.
func BenchmarkLargeDimDense(b *testing.B) {
	for _, dim := range []struct {
		name string
		d    int
	}{{"d=100k", 100_000}, {"d=1M", 1_000_000}} {
		iters := 64
		if dim.d >= 1_000_000 {
			iters = 32
		}
		for _, l := range benchDenseVariants {
			b.Run(fmt.Sprintf("%s/%s", dim.name, l.name), func(b *testing.B) {
				oracle := benchDenseOracle{d: dim.d}
				b.ReportAllocs()
				var ups float64
				for i := 0; i < b.N; i++ {
					cfg := Config{
						Workers: 8, TotalIters: iters, Alpha: 0.001,
						Oracle: oracle, Seed: 7, Padded: l.padded,
					}
					if l.strat != nil {
						cfg.Strategy = l.strat()
					}
					res, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					ups += res.UpdatesPerSec
				}
				b.ReportMetric(ups/float64(b.N), "updates/s")
			})
		}
	}
}

// BenchmarkLargeDimGated is the same shape through the bounded-staleness
// gate (τ=4): gate overhead plus the dense pipeline, exercising the
// striped low-water-mark register under contention.
func BenchmarkLargeDimGated(b *testing.B) {
	const d, iters = 1_000_000, 32
	for _, l := range benchLayouts {
		b.Run("d=1M/"+l.name, func(b *testing.B) {
			oracle := benchDenseOracle{d: d}
			b.ReportAllocs()
			var ups float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Workers: 8, TotalIters: iters, Alpha: 0.001,
					Oracle: oracle, Seed: 7, Padded: l.padded,
					Strategy: NewBoundedStaleness(4),
				})
				if err != nil {
					b.Fatal(err)
				}
				ups += res.UpdatesPerSec
			}
			b.ReportMetric(ups/float64(b.N), "updates/s")
		})
	}
}

// BenchmarkLargeDimSparse measures the sparse pipeline at d = 10⁶ with
// contiguous 4096-coordinate supports: gathers and scatter-runs against
// a model that does not fit in cache. Layout matters less here (the
// padded working set is 8x but the touched set is k, not d).
func BenchmarkLargeDimSparse(b *testing.B) {
	const d, k, iters = 1_000_000, 4096, 512
	for _, l := range benchLayouts {
		b.Run("d=1M/"+l.name, func(b *testing.B) {
			oracle := newBenchSparseOracle(d, k, 0)
			b.ReportAllocs()
			var ups float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Workers: 8, TotalIters: iters, Alpha: 0.001,
					Oracle: oracle, Seed: 7, Padded: l.padded,
					Strategy: NewSparseLockFree(),
				})
				if err != nil {
					b.Fatal(err)
				}
				ups += res.UpdatesPerSec
			}
			b.ReportMetric(ups/float64(b.N), "updates/s")
		})
	}
}
