package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"asyncsgd/internal/core"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/sched"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// tinyRequest is the standard small deterministic test spec: a 2-cell
// machine grid that runs in milliseconds.
func tinyRequest(seed uint64) SweepRequest {
	adv := 8
	return SweepRequest{
		Taus:       []int{2},
		Workers:    []int{2},
		Sparsity:   []float64{0.4},
		Dim:        8,
		Replicates: 2,
		Iters:      40,
		Seed:       &seed,
		Adversary:  &adv,
		Runtime:    "machine",
	}
}

func TestRequestDefaults(t *testing.T) {
	norm, err := SweepRequest{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Dim != DefaultDim || norm.Replicates != DefaultReplicates ||
		norm.Iters != DefaultIters || *norm.Seed != DefaultSeed ||
		*norm.Adversary != DefaultAdversary || norm.Runtime != DefaultRuntime {
		t.Fatalf("defaults not applied: %+v", norm)
	}
	if len(norm.Taus) != 4 || len(norm.Workers) != 3 || len(norm.Sparsity) != 3 {
		t.Fatalf("axis defaults not applied: %+v", norm)
	}
	// The empty request is the CLI's default grid: 108 cells.
	n, err := SweepRequest{}.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 108 {
		t.Fatalf("default request expands to %d cells, want 108", n)
	}
}

// TestKeyNormalizationInvariant: an empty request and one spelling out
// every default share a cache key; changing any execution-relevant field
// changes it.
func TestKeyNormalizationInvariant(t *testing.T) {
	empty, err := SweepRequest{}.Key()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(DefaultSeed)
	adv := DefaultAdversary
	spelled, err := SweepRequest{
		Taus: DefaultTaus, Workers: DefaultWorkers, Sparsity: DefaultSparsity,
		Dim: DefaultDim, Replicates: DefaultReplicates, Iters: DefaultIters,
		Seed: &seed, Adversary: &adv, Runtime: DefaultRuntime,
	}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if empty != spelled {
		t.Fatalf("equivalent requests have different keys: %s vs %s", empty, spelled)
	}
	for name, mutate := range map[string]func(*SweepRequest){
		"seed":      func(q *SweepRequest) { s := uint64(7); q.Seed = &s },
		"iters":     func(q *SweepRequest) { q.Iters = 41 },
		"adversary": func(q *SweepRequest) { a := 0; q.Adversary = &a },
		"taus":      func(q *SweepRequest) { q.Taus = []int{1, 2, 4} },
		"dim":       func(q *SweepRequest) { q.Dim = 16 },
	} {
		q := SweepRequest{}
		mutate(&q)
		k, err := q.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == empty {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	cases := map[string]SweepRequest{
		"bad runtime":   {Runtime: "gpu"},
		"bad tau":       {Taus: []int{0}},
		"bad workers":   {Workers: []int{-1}},
		"bad sparsity":  {Sparsity: []float64{1.5}},
		"bad reps":      {Replicates: -2},
		"bad iters":     {Iters: -5},
		"bad dim":       {Dim: -1},
		"bad adversary": {Adversary: func() *int { v := -1; return &v }()},
	}
	for name, req := range cases {
		if _, err := req.Normalized(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

// TestSpecsShape: Specs builds the declared grid — one leg per runtime,
// cells = the product of the axes, one positive α shared by every leg —
// and under runtime "both" each leg expands cell for cell, seed for seed,
// exactly as the single-runtime request does.
func TestSpecsShape(t *testing.T) {
	seed := uint64(8)
	base := SweepRequest{
		Taus: []int{1, 2}, Workers: []int{2, 3}, Sparsity: []float64{0.2, 0.5},
		Dim: 16, Replicates: 3, Iters: 50, Seed: &seed,
	}
	for _, tc := range []struct {
		runtime    string
		faults     []string
		legs, want int // runtime legs, cells per leg
	}{
		{"machine", nil, 1, 2 * 2 * 2 * 3},
		{"hogwild", nil, 1, 2 * 2 * 2 * 3},
		{"machine", []string{"none", "ticket/1"}, 1, 2 * 2 * 2 * 3 * 2},
		{"both", nil, 2, 2 * 2 * 2 * 3},
	} {
		q := base
		q.Runtime, q.Faults = tc.runtime, tc.faults
		specs, err := q.Specs()
		if err != nil {
			t.Fatalf("%s: %v", tc.runtime, err)
		}
		if len(specs) != tc.legs {
			t.Fatalf("%s: %d legs, want %d", tc.runtime, len(specs), tc.legs)
		}
		for _, spec := range specs {
			if len(spec.Alphas) != 1 || spec.Alphas[0] <= 0 || spec.Alphas[0] != specs[0].Alphas[0] {
				t.Fatalf("%s: alpha axis %v, want one positive value shared by every leg", spec.Name, spec.Alphas)
			}
			cells, err := spec.Cells()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != tc.want {
				t.Fatalf("%s: %d cells, want %d", spec.Name, len(cells), tc.want)
			}
			if tc.runtime != "both" {
				continue
			}
			single := q
			single.Runtime = spec.Runtimes[0].String()
			legs, err := single.Specs()
			if err != nil {
				t.Fatal(err)
			}
			want, err := legs[0].Cells()
			if err != nil {
				t.Fatal(err)
			}
			if legs[0].Name != spec.Name || legs[0].Alphas[0] != spec.Alphas[0] {
				t.Fatalf("leg %s (α %g) differs from request %s (α %g)",
					spec.Name, spec.Alphas[0], legs[0].Name, legs[0].Alphas[0])
			}
			for i := range cells {
				if cells[i].Seed != want[i].Seed || cells[i].Alpha != want[i].Alpha {
					t.Fatalf("%s cell %d: seed %d α %g, single-runtime request has seed %d α %g",
						spec.Name, i, cells[i].Seed, cells[i].Alpha, want[i].Seed, want[i].Alpha)
				}
			}
		}
	}
}

// TestProbeMemo: a memoized probe gives the bits a fresh probe gives, and
// the memo stays at its fixed size however many requests pass through.
func TestProbeMemo(t *testing.T) {
	req := tinyRequest(0x5eed_0001)
	fresh, _, err := phaseOracle(0.4).Make(8, rng.New(*req.Seed))
	if err != nil {
		t.Fatal(err)
	}
	want := math.Float64bits(0.3 / fresh.Constants().L)
	for i := range 2 { // a miss, then a hit
		specs, err := req.Specs()
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(specs[0].Alphas[0]); got != want {
			t.Fatalf("expansion %d: alpha bits %#x, want %#x", i, got, want)
		}
	}

	for seed := range uint64(100) {
		if _, err := tinyRequest(0x5eed_1000 + seed).Specs(); err != nil {
			t.Fatal(err)
		}
	}
	probeMemo.Lock()
	defer probeMemo.Unlock()
	if n := len(probeMemo.l); n != probeMemoSize {
		t.Fatalf("memo holds %d entries after 100 distinct seeds, want %d", n, probeMemoSize)
	}
	for _, k := range probeMemo.ring {
		if _, ok := probeMemo.l[k]; !ok {
			t.Fatalf("ring key %+v is not in the memo", k)
		}
	}
}

func TestCacheableOnlyMachine(t *testing.T) {
	for rt, want := range map[string]bool{"machine": true, "hogwild": false, "both": false} {
		q, err := SweepRequest{Runtime: rt}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if q.Cacheable() != want {
			t.Errorf("Cacheable(%s) = %v, want %v", rt, q.Cacheable(), want)
		}
	}
}

// TestRunRequestDeterministicDocument: the machine-runtime document is
// byte-identical across reruns modulo the timing fields — the invariant
// the result cache and the CI serve job both lean on.
func TestRunRequestDeterministicDocument(t *testing.T) {
	req := tinyRequest(11)
	var docs [2]string
	for i := range docs {
		rep, err := RunRequest(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FailedCells() != 0 {
			t.Fatalf("run %d: %d failed cells", i, rep.FailedCells())
		}
		var b strings.Builder
		if err := rep.Encode(&b); err != nil {
			t.Fatal(err)
		}
		docs[i] = b.String()
	}
	if stripTiming(docs[0]) != stripTiming(docs[1]) {
		t.Fatalf("documents differ beyond timing fields:\n%s\n---\n%s", docs[0], docs[1])
	}
}

// raceBuild is set by race_test.go in -race builds.
var raceBuild bool

// TestRunRequestCellAllocations is the counted allocation gate of the
// sweep cell path: after one warm-up op (which fills the request's
// probe memo), the default 108-cell machine grid through RunRequest must
// allocate at most 88 objects and 81 KB per cell: the readings of 84
// and 77.7 KB, the same on any GOMAXPROCS, plus under 5 % headroom, so
// the gate still catches the detours named below. Attaching a fresh
// contention tracker to every cell breaks it many times over; so does
// allocating each dataset row, or each sparse row's index and value
// slices, on its own (688 mallocs per cell), building the sparse oracle
// through a dense one with its own Gram, eigenvalue and elimination
// copies (92 mallocs, 152 KB), or a fresh dense m×d sample slab and
// 2·d² Gram slab per cell instead of the pooled ones (86 mallocs,
// 143.2 KB). What is left is mostly the oracle's CSR slabs and the
// machine (DESIGN §4).
func TestRunRequestCellAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops sync.Pool entries at random and instruments allocations")
	}
	run := func() int {
		rep, err := RunRequest(context.Background(), SweepRequest{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FailedCells() != 0 {
			t.Fatalf("%d failed cells", rep.FailedCells())
		}
		return len(rep.Sweep.Results)
	}
	// With the collector off, a pooled object on the cell path could not
	// be emptied between the two reads, so the gate counts the code's
	// allocations, not the collector's timing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cells := run()
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / float64(cells)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(cells)
	t.Logf("%d cells: %.0f mallocs, %.1f KB per cell", cells, mallocs, bytes/1000)
	if mallocs > 88 {
		t.Errorf("%.0f mallocs per cell, want ≤ 88", mallocs)
	}
	if bytes > 81e3 {
		t.Errorf("%.1f KB allocated per cell, want ≤ 81 KB", bytes/1000)
	}
}

// TestDefaultGridPolicyCallsPerStep: on the default grid's machine cells,
// run as sweep cells run them, the adversary's held decisions
// (shm.Decision.Hold) cut the policy calls to at most half the steps.
// The per-step policy was asked on every one.
func TestDefaultGridPolicyCallsPerStep(t *testing.T) {
	specs, err := SweepRequest{}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	oracles := map[string]sweep.Oracle{}
	for _, o := range spec.Oracles {
		oracles[o.Name] = o
	}
	strategies := map[string]sweep.Strategy{}
	for _, st := range spec.Strategies {
		strategies[st.Name] = st
	}
	var decisions, steps int
	for _, c := range cells {
		oracle, x0, err := oracles[c.Oracle].Make(c.Dim, rng.NewStream(c.Seed, 1<<32))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.EpochConfig{
			Threads: c.Workers, TotalIters: spec.Iters, Alpha: c.Alpha,
			Oracle: oracle, Seed: c.Seed, X0: x0, Policy: &sched.RoundRobin{},
		}
		if spec.Policy != nil {
			cfg.Policy = spec.Policy(c.Workers, rng.NewStream(c.Seed, 1<<33))
		}
		strategies[c.Strategy].Machine(&cfg)
		out, err := core.RunEpoch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		decisions += out.Stats.Decisions
		steps += out.Stats.Steps
	}
	ratio := float64(decisions) / float64(steps)
	t.Logf("%d cells: %d policy calls over %d steps (%.3f per step)", len(cells), decisions, steps, ratio)
	if ratio > 0.5 {
		t.Errorf("%.3f policy calls per step, want ≤ 0.5", ratio)
	}
}

// TestRunRequestStreamsGlobalIndices: with runtime "both" the streamed
// events carry the document-global (re-indexed) cell indices.
func TestRunRequestStreamsGlobalIndices(t *testing.T) {
	req := tinyRequest(5)
	req.Runtime = "both"
	req.Replicates = 1
	seen := map[int]bool{}
	rep, err := RunRequest(context.Background(), req, func(r sweep.CellResult) {
		seen[r.Index] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sweep.Cells != 2 {
		t.Fatalf("cells = %d, want 2 (one per runtime leg)", rep.Sweep.Cells)
	}
	for i := 0; i < rep.Sweep.Cells; i++ {
		if !seen[i] {
			t.Fatalf("no streamed event carried global index %d (saw %v)", i, seen)
		}
		if rep.Sweep.Results[i].Index != i {
			t.Fatalf("document index %d out of place", i)
		}
	}
	if !strings.Contains(rep.Sweep.Name, "+") {
		t.Fatalf("combined sweep name %q should join both legs", rep.Sweep.Name)
	}
}

// stripTiming drops the lines carrying wall-clock values — the documented
// nondeterministic fields of the v2 schema (DESIGN.md §6).
func stripTiming(doc string) string {
	var keep []string
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\"seconds\"") || strings.HasPrefix(trimmed, "\"updates_per_sec\"") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	a, b, d := &cached{}, &cached{}, &cached{}
	c.put("a", a)
	c.put("b", b)
	if _, ok := c.get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("d", d)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if got, ok := c.get("a"); !ok || got != a {
		t.Fatal("a should survive eviction")
	}
	if got, ok := c.get("d"); !ok || got != d {
		t.Fatal("d should be present")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestDefaultGridDocumentPinned pins the timeless default-grid document
// byte for byte: the SHA-256 of stripTiming(Report.Encode) on four seeds.
// The hashes were recorded before the sweep cell's copy- and
// allocation-removing rewrite, so a change that moves one byte of any
// cell's result (an rng draw, a τ, a float's rounding) fails here.
func TestDefaultGridDocumentPinned(t *testing.T) {
	if raceBuild {
		t.Skip("four 108-cell grids take minutes under the race detector")
	}
	want := map[uint64]string{
		1:    "f8b22686881cdd6ea39faf89e35ee94a63986528cd0abb892722f785c73db543",
		7:    "32f0d899ccaa2ccc8e76cd54b6d341848655c2a44412b0feec584b0b063f06ac",
		1701: "cf9cbbb44bde0e14f0b8856260b9b127ab4cf5ef96b6c31a0752ec58452a30a6",
		99:   "21111cbfdd503a6378d4f23b5fe496c2c99b7b159f7879964b0e5655910b084a",
	}
	for _, seed := range []uint64{1, 7, 1701, 99} {
		seed := seed
		rep, err := RunRequest(context.Background(), SweepRequest{Seed: &seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := rep.Encode(&b); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(stripTiming(b.String()))))
		t.Logf("seed %d: %s", seed, got)
		if got != want[seed] {
			t.Errorf("seed %d: document sha256 = %s, want %s", seed, got, want[seed])
		}
	}
}

// TestConcurrentInstanceBuilds: phase instances built by several
// goroutines at once, of two sizes so that the pooled row and Gram
// slabs change hands between sizes, have the bits of the same instances
// built one at a time. Run it under -race -count=10 (CI does).
func TestConcurrentInstanceBuilds(t *testing.T) {
	type job struct {
		d    int
		keep float64
		seed uint64
	}
	var jobs []job
	for _, d := range []int{8, 16} {
		for _, keep := range DefaultSparsity {
			for seed := uint64(1); seed <= 6; seed++ {
				jobs = append(jobs, job{d, keep, seed})
			}
		}
	}
	fingerprint := func(j job) (string, error) {
		sls, err := phaseInstance(j.d, j.keep, rng.New(j.seed))
		if err != nil {
			return "", err
		}
		cst := sls.Constants()
		h := sha256.New()
		for _, v := range append([]float64{sls.Lipschitz(), cst.C, cst.L, cst.M2, sls.AvgNNZ(),
			sls.Value(vec.Constant(j.d, 0.5))}, sls.Optimum()...) {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
		return fmt.Sprintf("%x", h.Sum(nil)), nil
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		fp, err := fingerprint(j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fp
	}
	const builders = 4
	var wg sync.WaitGroup
	for b := range builders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + b*len(jobs)/builders) % len(jobs) // each from its own start
				fp, err := fingerprint(jobs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if fp != want[i] {
					t.Errorf("builder %d, %+v: fingerprint %s, built alone %s", b, jobs[i], fp, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
