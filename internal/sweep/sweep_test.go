package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"asyncsgd/internal/core"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/hogwild"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/vec"
)

// quadOracle is the standard tiny test workload.
func quadOracle() Oracle {
	return Oracle{
		Name: "iso-quad",
		Make: func(d int, _ *rng.Rand) (grad.Oracle, vec.Dense, error) {
			if d == 0 {
				d = 8
			}
			q, err := grad.NewIsoQuadratic(d, 1, 0.3, 3, nil)
			if err != nil {
				return nil, nil, err
			}
			return q, vec.Constant(d, 0.5), nil
		},
	}
}

func TestCellsExpansion(t *testing.T) {
	s := Spec{
		Seed:       9,
		Runtimes:   []Runtime{Machine, Hogwild},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{LockFree(), BoundedStaleness(2)},
		Workers:    []int{1, 2},
		Dims:       []int{8, 16},
		Alphas:     []float64{0.05},
		Replicates: 3,
		Iters:      10,
	}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1 * 2 * 2 * 2 * 1 * 3
	if len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	seen := make(map[uint64]bool)
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if seen[c.Seed] {
			t.Errorf("cell %d: duplicate seed %#x", i, c.Seed)
		}
		seen[c.Seed] = true
	}
	// Expansion is pure: a second call yields the identical grid.
	again, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Seed != again[i].Seed || cells[i].Strategy != again[i].Strategy {
			t.Fatalf("expansion not reproducible at cell %d", i)
		}
	}
}

// TestSeedsSurviveAxisExtension: per-cell seeds derive from the cell's
// coordinates, so adding a value to an axis must not reseed the cells
// that were already in the grid.
func TestSeedsSurviveAxisExtension(t *testing.T) {
	base := Spec{
		Seed:       42,
		Runtimes:   []Runtime{Machine},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{BoundedStaleness(2)},
		Workers:    []int{2},
		Alphas:     []float64{0.05},
		Replicates: 2,
		Iters:      10,
	}
	small, err := base.Cells()
	if err != nil {
		t.Fatal(err)
	}
	big := base
	big.Workers = []int{2, 4}
	big.Strategies = []Strategy{BoundedStaleness(2), BoundedStaleness(8)}
	ext, err := big.Cells()
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[uint64]Cell)
	for _, c := range ext {
		index[c.Seed] = c
	}
	for _, c := range small {
		e, ok := index[c.Seed]
		if !ok {
			t.Fatalf("cell (%s w=%d rep=%d) lost its seed after axis extension",
				c.Strategy, c.Workers, c.Rep)
		}
		if e.Strategy != c.Strategy || e.Workers != c.Workers || e.Rep != c.Rep {
			t.Fatalf("seed %#x moved to a different coordinate", c.Seed)
		}
	}
}

func TestBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Spec
	}{
		{"no-axes", Spec{Iters: 10}},
		{"no-iters", Spec{Oracles: []Oracle{quadOracle()}, Strategies: []Strategy{LockFree()}, Alphas: []float64{0.1}}},
		{"bad-workers", Spec{Oracles: []Oracle{quadOracle()}, Strategies: []Strategy{LockFree()},
			Alphas: []float64{0.1}, Workers: []int{0}, Iters: 10}},
		{"bad-runtime", Spec{Oracles: []Oracle{quadOracle()}, Strategies: []Strategy{LockFree()},
			Alphas: []float64{0.1}, Runtimes: []Runtime{Runtime(9)}, Iters: 10}},
		{"anon-oracle", Spec{Oracles: []Oracle{{}}, Strategies: []Strategy{LockFree()},
			Alphas: []float64{0.1}, Iters: 10}},
	} {
		if _, err := tc.s.Cells(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: error %v, want ErrBadSpec", tc.name, err)
		}
	}
}

// TestMachineSweepDeterministicAcrossConcurrency: the same spec must
// produce bit-identical non-timing results whether cells run one at a
// time or interleaved on a wide pool — per-cell seeds are split from
// coordinates, so execution order cannot leak into outcomes.
func TestMachineSweepDeterministicAcrossConcurrency(t *testing.T) {
	mk := func(maxConc int) Spec {
		return Spec{
			Seed:          7,
			Runtimes:      []Runtime{Machine},
			Oracles:       []Oracle{quadOracle()},
			Strategies:    []Strategy{LockFree(), BoundedStaleness(2), EpochFence(8)},
			Workers:       []int{1, 3},
			Alphas:        []float64{0.05},
			Replicates:    2,
			Iters:         60,
			MaxConcurrent: maxConc,
		}
	}
	serial, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(wide) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		a, b := serial[i], wide[i]
		if a.Err != "" || b.Err != "" {
			t.Fatalf("cell %d errored: %q / %q", i, a.Err, b.Err)
		}
		if a.FinalLoss != b.FinalLoss || a.FinalDist2 != b.FinalDist2 ||
			a.CoordOps != b.CoordOps || a.Iters != b.Iters ||
			a.MaxStaleness != b.MaxStaleness {
			t.Errorf("cell %d differs across pool widths: %+v vs %+v", i, a, b)
		}
	}
}

// TestHogwildCellMatchesDirectRun: a single-worker hogwild cell is
// bit-identical to calling hogwild.Run directly with the cell's split
// seed — the engine adds scheduling, not semantics.
func TestHogwildCellMatchesDirectRun(t *testing.T) {
	s := Spec{
		Seed:       21,
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{BoundedStaleness(3)},
		Workers:    []int{1},
		Alphas:     []float64{0.04},
		Iters:      200,
	}
	results, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != "" {
		t.Fatalf("unexpected results: %+v", results)
	}
	cell := results[0].Cell
	oracle, x0, err := quadOracle().Make(0, rng.NewStream(cell.Seed, oracleStream))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := hogwild.Run(hogwild.Config{
		Workers: 1, TotalIters: s.Iters, Alpha: 0.04,
		Oracle: oracle, Seed: cell.Seed,
		Strategy: hogwild.NewBoundedStaleness(3), X0: x0,
	})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := vec.Dist2Sq(direct.Final, oracle.Optimum())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].FinalDist2 != d2 {
		t.Errorf("sweep dist² %v != direct run %v", results[0].FinalDist2, d2)
	}
	if results[0].CoordOps != direct.CoordOps {
		t.Errorf("sweep CoordOps %d != direct %d", results[0].CoordOps, direct.CoordOps)
	}
	if results[0].MaxStaleness != direct.MaxStaleness {
		t.Errorf("sweep staleness %d != direct %d", results[0].MaxStaleness, direct.MaxStaleness)
	}
}

// TestPanicCellsAreIsolated: a cell whose oracle panics records the
// panic as its Err instead of crashing the sweep (and the process).
func TestPanicCellsAreIsolated(t *testing.T) {
	bomb := Oracle{
		Name: "bomb",
		Make: func(int, *rng.Rand) (grad.Oracle, vec.Dense, error) {
			panic("boom")
		},
	}
	s := Spec{
		Seed:       5,
		Oracles:    []Oracle{bomb, quadOracle()},
		Strategies: []Strategy{LockFree()},
		Alphas:     []float64{0.05},
		Iters:      30,
	}
	results, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(results[0].Err, "panic: boom") {
		t.Errorf("panic not captured: %+v", results[0])
	}
	if results[1].Err != "" {
		t.Errorf("healthy cell failed: %s", results[1].Err)
	}
}

// TestErrorCellsAreIsolated: a cell that cannot run (sparse strategy over
// a dense-only oracle) reports its error without sinking the sweep.
func TestErrorCellsAreIsolated(t *testing.T) {
	sparse := Strategy{Name: "sparse-lock-free", Hogwild: hogwild.NewSparseLockFree, Machine: func(*core.EpochConfig) {}}
	s := Spec{
		Seed:       5,
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{sparse, LockFree()},
		Alphas:     []float64{0.05},
		Iters:      50,
	}
	results, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err == "" {
		t.Error("sparse strategy over dense oracle should fail")
	}
	if results[1].Err != "" {
		t.Errorf("lock-free cell failed: %s", results[1].Err)
	}
	stats := Aggregate(results)
	if len(stats) != 2 {
		t.Fatalf("aggregated %d points", len(stats))
	}
	if stats[0].Errs != 1 || stats[0].N != 0 {
		t.Errorf("error point aggregated as %+v", stats[0])
	}
}

func TestAggregateAndTable(t *testing.T) {
	s := Spec{
		Seed:       3,
		Runtimes:   []Runtime{Machine},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{BoundedStaleness(2)},
		Workers:    []int{2},
		Alphas:     []float64{0.05},
		Replicates: 4,
		Iters:      40,
	}
	results, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	stats := Aggregate(results)
	if len(stats) != 1 {
		t.Fatalf("4 replicates of one point aggregated into %d rows", len(stats))
	}
	p := stats[0]
	if p.N != 4 || p.Errs != 0 {
		t.Fatalf("point stat %+v", p)
	}
	if p.Loss.N() != 4 || p.Dist2.N() != 4 {
		t.Errorf("Welford counts: loss %d dist2 %d", p.Loss.N(), p.Dist2.N())
	}
	if p.MaxStaleness < 0 || p.MaxStaleness > 2 {
		t.Errorf("staleness %d outside [0, τ=2]", p.MaxStaleness)
	}
	tbl := Table("t", stats)
	if len(tbl.Rows) != 1 {
		t.Fatalf("table rows %d", len(tbl.Rows))
	}
	text := tbl.String()
	if !strings.Contains(text, "bounded-staleness/tau=2") || !strings.Contains(text, "YES") {
		t.Errorf("table missing expected cells:\n%s", text)
	}
}

// TestOnResultStreams: the streaming callback sees every cell exactly
// once; the returned slice is still in cell order.
func TestOnResultStreams(t *testing.T) {
	var streamed []int
	s := Spec{
		Seed:          11,
		Runtimes:      []Runtime{Machine},
		Oracles:       []Oracle{quadOracle()},
		Strategies:    []Strategy{LockFree()},
		Workers:       []int{1, 2, 3},
		Alphas:        []float64{0.05},
		Replicates:    2,
		Iters:         30,
		MaxConcurrent: 4,
		OnResult:      nil,
	}
	s.OnResult = func(r CellResult) { streamed = append(streamed, r.Index) }
	results, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(results) {
		t.Fatalf("streamed %d of %d cells", len(streamed), len(results))
	}
	seen := make(map[int]bool)
	for _, i := range streamed {
		if seen[i] {
			t.Errorf("cell %d streamed twice", i)
		}
		seen[i] = true
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d out of order (Index %d)", i, r.Index)
		}
	}
}

// TestRunContextCancel: canceling the context mid-sweep stops the
// dispatcher; every cell still gets a result slot, the tail records
// ErrCanceled, and RunContext reports ctx.Err().
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := 0
	s := Spec{
		Seed:       3,
		Runtimes:   []Runtime{Machine},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{LockFree()},
		Alphas:     []float64{0.05},
		Replicates: 12,
		Iters:      50,
		// Serialize the pool so cancellation lands at a deterministic
		// point in the FIFO dispatch order.
		MaxConcurrent: 1,
		OnResult: func(r CellResult) {
			if r.Err == "" {
				started++
				if started == 2 {
					cancel()
				}
			}
		},
	}
	res, err := RunContext(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 12 {
		t.Fatalf("got %d results, want one per cell (12)", len(res))
	}
	ran, canceled := 0, 0
	for i, r := range res {
		switch r.Err {
		case "":
			ran++
			if r.Iters != 50 {
				t.Errorf("cell %d: completed cell has Iters %d", i, r.Iters)
			}
		case ErrCanceled:
			canceled++
		default:
			t.Errorf("cell %d: unexpected error %q", i, r.Err)
		}
	}
	if ran == 0 || canceled == 0 || ran+canceled != 12 {
		t.Fatalf("ran %d canceled %d, want both non-zero summing to 12", ran, canceled)
	}
	// Completed cells form a prefix: FIFO admission means cancellation
	// cuts the cell order, it does not skip around.
	for i := 1; i < len(res); i++ {
		if res[i].Err == "" && res[i-1].Err == ErrCanceled {
			t.Fatalf("cell %d ran after cell %d was canceled", i, i-1)
		}
	}
}

// TestRunContextUncanceled: a background context changes nothing.
func TestRunContextUncanceled(t *testing.T) {
	s := Spec{
		Seed:       4,
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{LockFree()},
		Alphas:     []float64{0.05},
		Iters:      20,
	}
	res, err := RunContext(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != "" {
		t.Fatalf("unexpected results %+v", res)
	}
}

// TestCellWeightScalesWithDimClass pins the scheduling weight formula:
// hogwild cells occupy Workers × dimClass slots so a large-dimension
// cell cannot co-schedule with a crowd of small cells; machine cells
// stay sequential regardless of dimension.
func TestCellWeightScalesWithDimClass(t *testing.T) {
	cases := []struct {
		name     string
		runtime  Runtime
		workers  int
		dim      int
		capacity int
		want     int
	}{
		{"machine-ignores-dim", Machine, 4, 1 << 20, 16, 1},
		{"hogwild-small-dim", Hogwild, 2, 8, 16, 2},
		{"hogwild-dim-zero", Hogwild, 3, 0, 16, 3},
		{"hogwild-llc-class", Hogwild, 2, cacheDim, 16, 4},
		{"hogwild-dram-class", Hogwild, 2, 1 << 18, 16, 8},
		{"hogwild-million-dim", Hogwild, 2, 1 << 20, 16, 8},
		{"capped-at-capacity", Hogwild, 4, 1 << 20, 8, 8},
	}
	for _, tc := range cases {
		c := Cell{Workers: tc.workers, Dim: tc.dim, runtime: tc.runtime}
		if got := cellWeight(c, tc.capacity); got != tc.want {
			t.Errorf("%s: cellWeight(workers=%d, dim=%d, cap=%d) = %d, want %d",
				tc.name, tc.workers, tc.dim, tc.capacity, got, tc.want)
		}
	}
}

// TestLargeDimCellsDoNotCoSchedule: with pool capacity 2, two
// single-worker hogwild cells at the banked-layout threshold each weigh
// dimClass = 2 = capacity, so the FIFO gate must run them strictly one
// at a time. Overlap is observed through an in-flight counter spanning
// each cell's Make → OnResult interval (the gate releases a cell's
// slots only after OnResult returns, so disjoint intervals are exactly
// what exclusive scheduling guarantees). The assertion cannot flake: it
// fails only if two cells actually overlapped.
func TestLargeDimCellsDoNotCoSchedule(t *testing.T) {
	var inflight, maxSeen atomic.Int32
	bigOracle := Oracle{
		Name: "big-iso-quad",
		Make: func(d int, _ *rng.Rand) (grad.Oracle, vec.Dense, error) {
			if cur := inflight.Add(1); cur > maxSeen.Load() {
				maxSeen.Store(cur)
			}
			q, err := grad.NewIsoQuadratic(d, 1, 0, 3, nil)
			if err != nil {
				return nil, nil, err
			}
			return q, vec.Constant(d, 0.5), nil
		},
	}
	s := Spec{
		Seed:          7,
		Runtimes:      []Runtime{Hogwild},
		Oracles:       []Oracle{bigOracle},
		Strategies:    []Strategy{LockFree()},
		Workers:       []int{1},
		Dims:          []int{cacheDim},
		Alphas:        []float64{0.001},
		Replicates:    2,
		Iters:         2,
		MaxConcurrent: 2,
		OnResult:      func(CellResult) { inflight.Add(-1) },
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", r.Cell.Index, r.Err)
		}
	}
	if m := maxSeen.Load(); m != 1 {
		t.Fatalf("large-dim cells overlapped: max in-flight = %d, want 1", m)
	}
}
