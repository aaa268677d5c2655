package experiments

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"asyncsgd/internal/grad"
	"asyncsgd/internal/report"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/vec"
)

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("%d experiments registered, want 18", len(ids))
	}
	for _, id := range ids {
		title, err := TitleOf(id)
		if err != nil || title == "" {
			t.Errorf("TitleOf(%q) = %q, %v", id, title, err)
		}
	}
	if _, err := TitleOf("nope"); !errors.Is(err, ErrUnknown) {
		t.Error("unknown id accepted")
	}
	var buf bytes.Buffer
	if err := Run("nope", Quick, &buf); !errors.Is(err, ErrUnknown) {
		t.Error("Run accepted unknown id")
	}
}

// holdsAllYes fails the test if any "holds"-style column contains "NO".
func holdsAllYes(t *testing.T, tables []*report.Table) {
	t.Helper()
	for _, tbl := range tables {
		for ci, col := range tbl.Columns {
			if !strings.Contains(col, "holds") && col != "tau_avg<=2n" {
				continue
			}
			for ri, row := range tbl.Rows {
				if row[ci] == "NO" {
					t.Errorf("%s: row %d column %q = NO\n%s", tbl.Title, ri, col, tbl)
				}
			}
		}
	}
}

func TestE1BoundDominates(t *testing.T) {
	tables, err := E1SequentialBound(Quick)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	var prevBound float64
	for i, row := range tbl.Rows {
		hi := parseF(t, row[3])
		bound := parseF(t, row[4])
		if bound < hi {
			t.Errorf("T-row %d: bound %v below measured CI high %v", i, bound, hi)
		}
		if i > 0 && bound > prevBound {
			t.Errorf("bound not decreasing in T")
		}
		prevBound = bound
	}
}

func TestE2ExactContraction(t *testing.T) {
	tables, err := E2LowerBound(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// E2a: measured |x| must equal the closed form to float precision.
	for _, row := range tables[0].Rows {
		meas, pred := parseF(t, row[2]), parseF(t, row[3])
		if diff := meas - pred; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("contraction measured %v vs predicted %v", meas, pred)
		}
		// And the adversarial |x| exceeds the sequential one (slowdown).
		seq := parseF(t, row[4])
		if meas <= seq {
			t.Errorf("adversary did not slow down: %v <= %v", meas, seq)
		}
	}
	// E2b: variance ratio within Monte-Carlo slack of 1.
	for _, row := range tables[1].Rows {
		ratio := parseF(t, row[4])
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("variance ratio %v outside [0.85, 1.15]", ratio)
		}
	}
}

func TestE3LemmaHolds(t *testing.T) {
	tables, err := E3BadIterations(Quick)
	if err != nil {
		t.Fatal(err)
	}
	holdsAllYes(t, tables)
}

func TestE4LemmaHolds(t *testing.T) {
	tables, err := E4DelaySum(Quick)
	if err != nil {
		t.Fatal(err)
	}
	holdsAllYes(t, tables)
}

func TestE5BoundHoldsAndScalingSublinear(t *testing.T) {
	tables, err := E5UpperBound(Quick)
	if err != nil {
		t.Fatal(err)
	}
	holdsAllYes(t, tables)
	// The fitted exponent lives in the note of table 2; parse "p=<val>".
	note := tables[1].Note
	if note == "" {
		t.Skip("not enough scaling points at quick scale")
	}
	i := strings.Index(note, "p=")
	if i < 0 {
		t.Fatalf("note missing exponent: %q", note)
	}
	rest := note[i+2:]
	if j := strings.IndexAny(rest, " ("); j > 0 {
		rest = rest[:j]
	}
	p, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("parse exponent from %q: %v", note, err)
	}
	if p > 0.8 {
		t.Errorf("hit-time exponent %v suggests linear-in-τmax slowdown; paper predicts ≤ ~0.5", p)
	}
}

func TestE6FullSGDMeetsTarget(t *testing.T) {
	tables, err := E6FullSGD(Quick)
	if err != nil {
		t.Fatal(err)
	}
	holdsAllYes(t, tables)
}

func TestE7ContentionBound(t *testing.T) {
	tables, err := E7AvgContention(Quick)
	if err != nil {
		t.Fatal(err)
	}
	holdsAllYes(t, tables)
}

func TestE8FixedAlphaDegradesAsyncSurvives(t *testing.T) {
	tables, err := E8Tradeoff(Quick)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// Columns: budget, rate fixed, slowdown fixed, alpha12, rate 12, slowdown 12.
	last := tbl.Rows[len(tbl.Rows)-1] // largest budget
	slowFixed := parseF(t, last[2])
	slowAsync := parseF(t, last[5])
	if slowFixed < 10 {
		t.Errorf("fixed-α slowdown %v at max delay; Theorem 5.1 predicts Ω(τ)", slowFixed)
	}
	if slowAsync > 5 {
		t.Errorf("(12)-α slowdown %v at max delay; Corollary 6.7 predicts ≈1", slowAsync)
	}
	// Fixed-α slowdown must grow with the budget (linear in τ).
	mid := tbl.Rows[len(tbl.Rows)-2]
	if parseF(t, mid[2]) >= slowFixed {
		t.Errorf("fixed-α slowdown not increasing: %v then %v", mid[2], last[2])
	}
}

func TestE9InvariantsAndFigure(t *testing.T) {
	tables, err := E9Views(Quick)
	if err != nil {
		t.Fatal(err)
	}
	holdsAllYes(t, tables)
	fig := tables[1].String()
	if !strings.Contains(fig, "#") {
		t.Errorf("figure rendering has no applied updates:\n%s", fig)
	}
}

// TestE9TraceTapRecordsResults: the tap records each step's result, so
// shm.CheckTrace judges E9's trace: the run's own trace passes, and a
// copy with one read value altered fails.
func TestE9TraceTapRecordsResults(t *testing.T) {
	const n, d = 3, 6
	q, err := grad.NewIsoQuadratic(d, 1, 0.5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := vec.Constant(d, 0.5)
	var trace []shm.Step
	if _, err := runTraced(n, 24, q, x0, &trace); err != nil {
		t.Fatal(err)
	}
	initMem := append([]float64{0}, x0...)
	if err := shm.CheckTrace(trace, 1+d, initMem); err != nil {
		t.Fatalf("E9's trace fails the check: %v", err)
	}
	last := -1
	for i, s := range trace {
		if s.Req.Kind == shm.OpRead {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("E9's trace has no read")
	}
	bad := slices.Clone(trace)
	bad[last].Res.Val++
	if err := shm.CheckTrace(bad, 1+d, initMem); err == nil {
		t.Errorf("a trace with step %d's read value altered passes the check", last)
	}
}

func TestE10Throughput(t *testing.T) {
	tables, err := E10Throughput(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if parseF(t, row[2]) <= 0 {
			t.Errorf("non-positive throughput in row %v", row)
		}
		if n := parseF(t, row[1]); parseF(t, row[4]) > 2*n {
			t.Errorf("τavg above 2n in row %v", row)
		}
	}
}

func TestRunQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("e3", Quick, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Lemma 6.2") {
		t.Errorf("output missing table title:\n%s", buf.String())
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	if s == "never" {
		return -1
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
