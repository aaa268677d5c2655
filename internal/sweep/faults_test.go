package sweep

import (
	"errors"
	"strings"
	"testing"
)

func TestParseFaultAxisLabels(t *testing.T) {
	good := map[string]Faults{
		"none":            NoFaults(),
		"":                NoFaults(),
		"crash/2":         {Name: "crash/2", Crashes: 2},
		"crash/1/rejoin":  {Name: "crash/1/rejoin", Crashes: 1, Rejoin: true},
		"ticket/1":        {Name: "ticket/1", Crashes: 1, Ticket: true},
		"ticket/3/rejoin": {Name: "ticket/3/rejoin", Crashes: 3, Ticket: true, Rejoin: true},
	}
	for label, want := range good {
		got, err := ParseFaults(label)
		if err != nil || got != want {
			t.Errorf("ParseFaults(%q) = %+v, %v; want %+v", label, got, err, want)
		}
	}
	for _, label := range []string{"crash", "crash/0", "crash/x", "ticket/1/extra", "boom/1", "crash/1/rejoin/x"} {
		if _, err := ParseFaults(label); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseFaults(%q) accepted", label)
		}
	}

	if b, err := ParseByzantine("signflip/2"); err != nil || b.F != 2 || b.Name != "signflip/2" {
		t.Errorf("ParseByzantine(signflip/2) = %+v, %v", b, err)
	}
	for _, label := range []string{"signflip", "signflip/0", "flip/1", "nan/x"} {
		if _, err := ParseByzantine(label); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseByzantine(%q) accepted", label)
		}
	}

	if d, err := ParseDefense("clip/5"); err != nil || d.ClipLimit != 5 {
		t.Errorf("ParseDefense(clip/5) = %+v, %v", d, err)
	}
	if d, err := ParseDefense("median"); err != nil || !d.Median {
		t.Errorf("ParseDefense(median) = %+v, %v", d, err)
	}
	for _, label := range []string{"clip/0", "clip/-1", "clip/x", "armor"} {
		if _, err := ParseDefense(label); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseDefense(%q) accepted", label)
		}
	}
}

// TestNeutralRobustnessAxesKeepSeeds: the three robustness axes fold
// into cell seeds only when armed, so a pre-existing spec expands to
// byte-identical cells whether the axes are absent or spelled out as
// {none} — and arming them never reseeds the neutral cells (the same
// axis-extension contract the other axes honor).
func TestNeutralRobustnessAxesKeepSeeds(t *testing.T) {
	base := Spec{
		Seed:       42,
		Runtimes:   []Runtime{Machine},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{BoundedStaleness(2)},
		Workers:    []int{3},
		Alphas:     []float64{0.05},
		Replicates: 2,
		Iters:      10,
	}
	plain, err := base.Cells()
	if err != nil {
		t.Fatal(err)
	}

	explicit := base
	explicit.Faults = []Faults{NoFaults()}
	explicit.Byzantine = []Byzantine{NoByzantine()}
	explicit.Defenses = []Defense{NoDefense()}
	neutral, err := explicit.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(neutral) != len(plain) {
		t.Fatalf("neutral expansion has %d cells, want %d", len(neutral), len(plain))
	}
	for i := range plain {
		if neutral[i].Seed != plain[i].Seed {
			t.Fatalf("cell %d reseeded by explicit neutral axes: %#x vs %#x",
				i, neutral[i].Seed, plain[i].Seed)
		}
		if neutral[i].Faults != "" || neutral[i].Byzantine != "" || neutral[i].Defense != "" {
			t.Fatalf("cell %d: neutral axis labels leaked into the cell: %+v", i, neutral[i])
		}
	}

	armed := base
	armed.Faults = []Faults{NoFaults(), mustFaults(t, "ticket/1")}
	armed.Byzantine = []Byzantine{NoByzantine(), mustByz(t, "signflip/1")}
	ext, err := armed.Cells()
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[uint64]Cell, len(ext))
	for _, c := range ext {
		index[c.Seed] = c
	}
	for _, c := range plain {
		e, ok := index[c.Seed]
		if !ok {
			t.Fatalf("cell (rep=%d) lost its seed after arming the robustness axes", c.Rep)
		}
		if e.Faults != "" || e.Byzantine != "" {
			t.Fatalf("seed %#x moved to a non-neutral coordinate %q/%q", c.Seed, e.Faults, e.Byzantine)
		}
	}
}

func mustFaults(t *testing.T, s string) Faults {
	t.Helper()
	f, err := ParseFaults(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustByz(t *testing.T, s string) Byzantine {
	t.Helper()
	b, err := ParseByzantine(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustDefense(t *testing.T, s string) Defense {
	t.Helper()
	d, err := ParseDefense(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMachineFaultSweepDeterministic: fault-injected machine cells stay
// bit-reproducible — every counter and metric identical across reruns,
// the contract the serve cache and the committed E19 table rely on.
func TestMachineFaultSweepDeterministic(t *testing.T) {
	spec := Spec{
		Name:       "fault-determinism",
		Seed:       77,
		Runtimes:   []Runtime{Machine},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{BoundedStaleness(3)},
		Workers:    []int{3},
		Alphas:     []float64{0.05},
		Faults:     []Faults{mustFaults(t, "ticket/1/rejoin")},
		Replicates: 2,
		Iters:      40,
	}
	first, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		a, b := first[i], again[i]
		if a.Err != "" {
			t.Fatalf("cell %d failed: %s", i, a.Err)
		}
		if a.Crashed != 1 || a.Rejoined != 1 || a.RecoveredTickets < 1 || a.Stalled != 0 {
			t.Fatalf("cell %d counters: crashed=%d rejoined=%d recovered=%d stalled=%d",
				i, a.Crashed, a.Rejoined, a.RecoveredTickets, a.Stalled)
		}
		if a.FinalLoss != b.FinalLoss || a.FinalDist2 != b.FinalDist2 ||
			a.Crashed != b.Crashed || a.RecoveredTickets != b.RecoveredTickets ||
			a.MaxStaleness != b.MaxStaleness || a.Diverged != b.Diverged {
			t.Fatalf("cell %d not reproducible: %+v vs %+v", i, a, b)
		}
		if a.Faults != "ticket/1/rejoin" {
			t.Fatalf("cell %d fault label %q", i, a.Faults)
		}
	}
}

// TestMedianDefenseOnMachineCellErrors: the round-membership barrier has
// no machine implementation; pairing it with the Machine runtime yields
// a per-cell error, never a panic or a silent fallback.
func TestMedianDefenseOnMachineCellErrors(t *testing.T) {
	spec := Spec{
		Seed:       5,
		Runtimes:   []Runtime{Machine},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{LockFree()},
		Workers:    []int{2},
		Alphas:     []float64{0.05},
		Defenses:   []Defense{mustDefense(t, "median")},
		Iters:      10,
	}
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == "" || !strings.Contains(r.Err, "machine") {
			t.Fatalf("cell %d: err = %q, want a machine/median mismatch error", i, r.Err)
		}
	}
}

// TestHogwildByzantineCellMetersAndDefense: an undefended NaN-injection
// cell diverges visibly (Diverged, never a fake loss of 0), and the
// clip defense keeps the same attack finite with its meter covering the
// corruption meter. Both hold on every schedule: with nan/2 over two
// workers every iteration's gradient is corrupted, however the
// scheduler shares the budget; with nan/1 every corrupted gradient is
// non-finite, so clipping zeroes and counts each one, and a clipped
// update is finite whoever ran it.
func TestHogwildByzantineCellMetersAndDefense(t *testing.T) {
	base := Spec{
		Seed:       13,
		Runtimes:   []Runtime{Hogwild},
		Oracles:    []Oracle{quadOracle()},
		Strategies: []Strategy{LockFree()},
		Workers:    []int{2},
		Alphas:     []float64{0.05},
		Byzantine:  []Byzantine{mustByz(t, "nan/2")},
		Iters:      400,
	}
	undefended, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range undefended {
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", i, r.Err)
		}
		if r.Iters != 400 || r.CorruptedUpdates != int64(r.Iters) {
			t.Fatalf("cell %d: corrupted=%d iters=%d, want 400/400 (every worker is Byzantine)",
				i, r.CorruptedUpdates, r.Iters)
		}
		if !r.Diverged {
			t.Fatalf("cell %d: NaN injection did not mark the cell diverged (loss=%v)", i, r.FinalLoss)
		}
	}

	defended := base
	defended.Byzantine = []Byzantine{mustByz(t, "nan/1")}
	defended.Defenses = []Defense{mustDefense(t, "clip/5")}
	results, err := Run(defended)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", i, r.Err)
		}
		if r.Diverged {
			t.Fatalf("cell %d diverged despite the clip defense", i)
		}
		if r.ClippedUpdates < r.CorruptedUpdates {
			t.Fatalf("cell %d meters: corrupted=%d clipped=%d, want every corrupted update clipped",
				i, r.CorruptedUpdates, r.ClippedUpdates)
		}
	}
}

// TestFaultTableRendering: the robustness table carries the axis labels
// and counters through aggregation.
func TestFaultTableRendering(t *testing.T) {
	results := []CellResult{
		{Cell: Cell{Runtime: "machine", Strategy: "bounded-staleness", Workers: 3, Tau: 2,
			Faults: "ticket/1"}, Crashed: 1, RecoveredTickets: 1, FinalLoss: 0.5, MaxStaleness: 2},
		{Cell: Cell{Runtime: "machine", Strategy: "bounded-staleness", Workers: 3, Tau: 2,
			Faults: "ticket/1", Rep: 1}, Crashed: 1, RecoveredTickets: 1, FinalLoss: 0.7, MaxStaleness: 1},
		{Cell: Cell{Runtime: "hogwild", Strategy: "lock-free", Workers: 2,
			Byzantine: "nan/1"}, CorruptedUpdates: 9, Diverged: true},
	}
	stats := Aggregate(results)
	if len(stats) != 2 {
		t.Fatalf("aggregated to %d points, want 2", len(stats))
	}
	text := FaultTable("robustness", stats).String()
	for _, want := range []string{"ticket/1", "nan/1", "none", "crashed", "recovered", "diverged"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	// The diverged-only point must not render a numeric loss.
	if stats[1].Diverged != 1 || stats[1].Loss.Mean() != 0 {
		t.Errorf("diverged point folded into the loss mean: %+v", stats[1])
	}
}
