package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := New("demo", "a", "bb", "ccc")
	tbl.Note = "a note"
	tbl.AddRow("1", "2", "3")
	tbl.AddRow("longer", "x") // short row padded
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "a note") {
		t.Errorf("missing title/note:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, note, header, sep, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and separator equal length.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("separator misaligned:\n%s", out)
	}
}

func TestAddRowPadsAndTruncates(t *testing.T) {
	tbl := New("t", "a", "b")
	tbl.AddRow("1")
	tbl.AddRow("1", "2", "3")
	if len(tbl.Rows[0]) != 2 || tbl.Rows[0][1] != "" {
		t.Errorf("row 0 = %v", tbl.Rows[0])
	}
	if len(tbl.Rows[1]) != 2 {
		t.Errorf("row 1 = %v", tbl.Rows[1])
	}
}

func TestFl(t *testing.T) {
	tests := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		-2:      "-2",
		0.12345: "0.1235",
		1e-9:    "1.00e-09",
		1e7:     "1.00e+07",
	}
	for in, want := range tests {
		if got := Fl(in); got != want {
			t.Errorf("Fl(%v) = %q, want %q", in, got, want)
		}
	}
	if Fl(math.NaN()) != "NaN" || Fl(math.Inf(1)) != "+Inf" || Fl(math.Inf(-1)) != "-Inf" {
		t.Error("special values mishandled")
	}
	if In(42) != "42" {
		t.Error("In broken")
	}
}
