package experiments

import "testing"

// TestE17PhaseDiagramBoundsHold: the quick-scale phase diagram must
// produce all three tables with every gated cell inside its bound
// (holdsAllYes scans the bound_holds columns).
func TestE17PhaseDiagramBoundsHold(t *testing.T) {
	tables, err := E17PhaseDiagram(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d tables, want 3 (machine, hogwild, marginals)", len(tables))
	}
	holdsAllYes(t, tables)
	for _, tbl := range tables[:2] {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.Title)
		}
	}
}
