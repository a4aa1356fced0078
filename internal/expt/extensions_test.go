package expt

import (
	"strings"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
	"fdlsp/internal/incr"
)

func TestRandomizedComparisonSmall(t *testing.T) {
	tb, err := RandomizedComparison([]int{20}, 6, 1.2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "rand slots") {
		t.Errorf("missing column: %s", out)
	}
}

func TestBroadcastComparisonSmall(t *testing.T) {
	tb, err := BroadcastComparison([]int{20}, 6, 1.2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "broadcast link-service") {
		t.Error("missing column")
	}
}

func TestChurnExperimentSmall(t *testing.T) {
	tb, err := ChurnExperiment(25, 6, 1.2, 40, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "repair arcs/event") {
		t.Error("missing column")
	}
}

func TestQUDGComparisonSmall(t *testing.T) {
	tb, err := QUDGComparison(25, 6, 1.2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "udg") || !strings.Contains(out, "qudg") {
		t.Errorf("missing models: %s", out)
	}
}

func TestEnergyComparisonSmall(t *testing.T) {
	tb, err := EnergyComparison([]int{20}, 6, 1.2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "bcast energy/service") {
		t.Error("missing column")
	}
}

func TestFaultOverheadSmall(t *testing.T) {
	tb, err := FaultOverhead(16, 6, 2.5, []float64{0, 0.1}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "msg-overhead") || !strings.Contains(out, "x") {
		t.Errorf("missing overhead column: %s", out)
	}
}

func TestDMGCPhaseOneAblationSmall(t *testing.T) {
	tb, err := DMGCPhaseOneAblation(20, 45, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "misra-gries") || !strings.Contains(out, "vizing+locks") {
		t.Errorf("missing variants: %s", out)
	}
}

// TestTouchedNodes pins the message proxy: each added or dropped link and
// each pre-existing recolored arc counts its endpoints' 2-hop ball on the
// post-event graph.
func TestTouchedNodes(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	up, err := incr.New(g, coloring.Greedy(g, nil))
	if err != nil {
		t.Fatal(err)
	}
	down := dynamic.Event{Kind: dynamic.LinkDown, U: 1, V: 2}
	rep, err := up.Apply([]dynamic.Event{down})
	if err != nil {
		t.Fatal(err)
	}
	// Balls on 0-1 2-3: {0,1} ∪ {2,3}.
	if got := touchedNodes(up.Graph(), down, rep); got != 4 {
		t.Errorf("link-down touched %d nodes, want 4", got)
	}
	if _, err := up.Apply([]dynamic.Event{{Kind: dynamic.LinkUp, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	// Closing the 4-cycle: every ball is all four nodes, once for the new
	// link and once per pre-existing arc the repair moved.
	closing := dynamic.Event{Kind: dynamic.LinkUp, U: 0, V: 3}
	rep, err = up.Apply([]dynamic.Event{closing})
	if err != nil {
		t.Fatal(err)
	}
	moved := int64(len(rep.Recolored)) - 2
	if got := touchedNodes(up.Graph(), closing, rep); got != 4*(1+moved) {
		t.Errorf("link-up touched %d nodes, want %d (%d arcs moved)", got, 4*(1+moved), moved)
	}
}
