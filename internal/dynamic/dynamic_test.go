package dynamic_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
	"fdlsp/internal/incr"
)

// The maintenance tests drive dynamic.Events through incr.Updater, the one
// path that applies them to a live schedule; they live in this external
// test package because incr imports dynamic.

func mustUpdater(tb testing.TB, g *graph.Graph) *incr.Updater {
	tb.Helper()
	up, err := incr.New(g, coloring.Greedy(g, nil))
	if err != nil {
		tb.Fatal(err)
	}
	return up
}

// apply runs ev as a one-event batch.
func apply(tb testing.TB, up *incr.Updater, ev dynamic.Event) *incr.Report {
	tb.Helper()
	rep, err := up.Apply([]dynamic.Event{ev})
	if err != nil {
		tb.Fatalf("%v: %v", ev, err)
	}
	return rep
}

func checkValid(tb testing.TB, up *incr.Updater, context string) {
	tb.Helper()
	if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
		tb.Fatalf("%s: schedule invalid: %v", context, viols[0])
	}
}

// linkFlip toggles {u,v}: a link-down if the edge exists, else a link-up.
func linkFlip(g *graph.Graph, u, v int) dynamic.Event {
	if g.HasEdge(u, v) {
		return dynamic.Event{Kind: dynamic.LinkDown, U: u, V: v}
	}
	return dynamic.Event{Kind: dynamic.LinkUp, U: u, V: v}
}

func TestNewRejectsInvalid(t *testing.T) {
	g := graph.Path(3)
	as := coloring.NewAssignment(g)
	if _, err := incr.New(g, as); err == nil {
		t.Fatal("expected error for incomplete schedule")
	}
}

func TestLinkDownKeepsValidity(t *testing.T) {
	g := graph.Cycle(6)
	up := mustUpdater(t, g)
	rep := apply(t, up, dynamic.Event{Kind: dynamic.LinkDown, U: 0, V: 1})
	checkValid(t, up, "after link-down")
	if up.Graph().HasEdge(0, 1) {
		t.Error("edge not removed")
	}
	if len(rep.Dropped) != 2 || len(rep.Recolored) != 0 {
		t.Errorf("dropped %v, recolored %v; want the two arcs dropped and nothing recolored", rep.Dropped, rep.Recolored)
	}
	if _, err := up.Apply([]dynamic.Event{{Kind: dynamic.LinkDown, U: 0, V: 1}}); err == nil {
		t.Error("double link-down should fail")
	}
}

func TestLinkUpColorsNewArcs(t *testing.T) {
	g := graph.Path(4)
	up := mustUpdater(t, g)
	rep := apply(t, up, dynamic.Event{Kind: dynamic.LinkUp, U: 0, V: 3})
	checkValid(t, up, "after link-up")
	for _, a := range []graph.Arc{{From: 0, To: 3}, {From: 3, To: 0}} {
		if up.Assignment()[a] == coloring.None {
			t.Errorf("new arc %v uncolored", a)
		}
	}
	if len(rep.Recolored) < 2 {
		t.Errorf("recolor delta %v lacks the two new arcs", rep.Recolored)
	}
	if _, err := up.Apply([]dynamic.Event{{Kind: dynamic.LinkUp, U: 0, V: 3}}); err == nil {
		t.Error("duplicate link-up should fail")
	}
}

func TestLinkUpRepairsHiddenTerminal(t *testing.T) {
	// Two separate edges scheduled in slot 1 each; connecting them creates
	// a hidden terminal that must be repaired.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	as := coloring.NewAssignment(g)
	as.Set(graph.Arc{From: 0, To: 1}, 1)
	as.Set(graph.Arc{From: 1, To: 0}, 2)
	as.Set(graph.Arc{From: 2, To: 3}, 1) // conflicts with (0,1) once 1-2 exists
	as.Set(graph.Arc{From: 3, To: 2}, 2)
	up, err := incr.New(g, as)
	if err != nil {
		t.Fatal(err)
	}
	rep := apply(t, up, dynamic.Event{Kind: dynamic.LinkUp, U: 1, V: 2})
	checkValid(t, up, "after repairing link-up")
	if rep.DirtyArcs <= 2 {
		t.Errorf("dirty set %d holds only the new arcs; the clashing pair is missing", rep.DirtyArcs)
	}
	repaired := 0
	for _, rc := range rep.Recolored {
		if min(rc.From, rc.To) != 1 || max(rc.From, rc.To) != 2 {
			repaired++ // not one of the new link's arcs
		}
	}
	if repaired == 0 {
		t.Errorf("expected at least one recolored existing arc, delta %v", rep.Recolored)
	}
}

func TestNodeFail(t *testing.T) {
	g := graph.Star(6)
	up := mustUpdater(t, g)
	apply(t, up, dynamic.Event{Kind: dynamic.NodeFail, U: 0})
	checkValid(t, up, "after center failure")
	if up.Graph().M() != 0 {
		t.Errorf("star center failed but %d edges remain", up.Graph().M())
	}
	if up.Slots() != 0 {
		t.Errorf("no links left but %d slots", up.Slots())
	}
}

func TestNodeJoinAndMove(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	up := mustUpdater(t, g)
	apply(t, up, dynamic.Event{Kind: dynamic.NodeJoin, U: 4, Peers: []int{1, 2}})
	checkValid(t, up, "after join")
	if !up.Graph().HasEdge(4, 1) || !up.Graph().HasEdge(4, 2) {
		t.Error("join links missing")
	}
	apply(t, up, dynamic.Event{Kind: dynamic.NodeMove, U: 4, Peers: []int{2, 3}})
	checkValid(t, up, "after move")
	if up.Graph().HasEdge(4, 1) || !up.Graph().HasEdge(4, 3) || !up.Graph().HasEdge(4, 2) {
		t.Error("move did not rewire correctly")
	}
}

func TestChurnStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.GNM(25, 60, rng)
	up := mustUpdater(t, g)
	for step := 0; step < 400; step++ {
		u, v := rng.Intn(25), rng.Intn(25)
		if u == v {
			continue
		}
		ev := linkFlip(up.Graph(), u, v)
		apply(t, up, ev)
		checkValid(t, up, ev.String())
	}
	// Some iterations skip on u==v, so updates <= 400; ensure nontrivial.
	if up.Updates() < 100 {
		t.Errorf("too few events applied: %d", up.Updates())
	}
}

func TestRepairCheaperThanRebuild(t *testing.T) {
	// The headline property of incremental repair: per-event recoloring
	// touches a small fraction of the arcs a rebuild would.
	rng := rand.New(rand.NewSource(4))
	g := graph.ConnectedGNM(60, 180, rng)
	up := mustUpdater(t, g)
	events, recolored := 0, 0
	for step := 0; step < 200; step++ {
		u, v := rng.Intn(60), rng.Intn(60)
		if u == v {
			continue
		}
		recolored += len(apply(t, up, linkFlip(up.Graph(), u, v)).Recolored)
		events++
	}
	perEvent := float64(recolored) / float64(events)
	rebuildArcs := float64(2 * up.Graph().M())
	if perEvent > rebuildArcs/4 {
		t.Errorf("repair recolors %.1f arcs/event; rebuild would recolor %d — incrementality lost", perEvent, int(rebuildArcs))
	}
	checkValid(t, up, "after churn")
}

// Property: any single event on any valid schedule preserves validity.
func TestSingleEventPreservesValidityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 3 + rng.Intn(15)
		g := graph.GNM(nNodes, rng.Intn(nNodes*(nNodes-1)/2+1), rng)
		up, err := incr.New(g, coloring.Greedy(g, nil))
		if err != nil {
			return false
		}
		u, v := rng.Intn(nNodes), rng.Intn(nNodes)
		if u == v {
			return true
		}
		if _, err := up.Apply([]dynamic.Event{linkFlip(up.Graph(), u, v)}); err != nil {
			return false
		}
		return coloring.Valid(up.Graph(), up.Assignment())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEventStrings(t *testing.T) {
	if (dynamic.Event{Kind: dynamic.LinkUp, U: 1, V: 2}).String() != "link-up{1,2}" {
		t.Error("link event string")
	}
	if (dynamic.Event{Kind: dynamic.NodeJoin, U: 3, Peers: []int{1}}).String() != "node-join{3->[1]}" {
		t.Error("join event string")
	}
	if dynamic.EventKind(99).String() != "invalid" {
		t.Error("invalid kind string")
	}
}

func TestDiffIdenticalIsEmpty(t *testing.T) {
	g := graph.Cycle(6)
	as := coloring.Greedy(g, nil)
	if d := dynamic.Diff(as, as); len(d) != 0 {
		t.Fatalf("identical schedules diff: %v", d)
	}
}

func TestDiffLocalizedAfterRepair(t *testing.T) {
	// After one link event, only nodes near the event should need new
	// firmware tables.
	rng := rand.New(rand.NewSource(8))
	g := graph.ConnectedGNM(40, 90, rng)
	up := mustUpdater(t, g)
	before := up.Assignment().Clone()
	// Find a non-edge to add.
	var u, v int
	for {
		u, v = rng.Intn(40), rng.Intn(40)
		if u != v && !up.Graph().HasEdge(u, v) {
			break
		}
	}
	apply(t, up, dynamic.Event{Kind: dynamic.LinkUp, U: u, V: v})
	deltas := dynamic.Diff(before, up.Assignment())
	if len(deltas) == 0 {
		t.Fatal("a link-up must change at least the two endpoints")
	}
	if len(deltas) > 12 {
		t.Errorf("repair touched %d nodes' tables — not localized", len(deltas))
	}
	// The endpoints must appear.
	found := map[int]bool{}
	for _, d := range deltas {
		if !d.Changed() {
			t.Errorf("empty delta emitted for node %d", d.Node)
		}
		found[d.Node] = true
	}
	if !found[u] || !found[v] {
		t.Errorf("endpoints %d,%d missing from deltas %v", u, v, deltas)
	}
}

func TestDiffDetectsRemovals(t *testing.T) {
	g := graph.Path(3)
	old := coloring.Greedy(g, nil)
	up := mustUpdater(t, g)
	apply(t, up, dynamic.Event{Kind: dynamic.LinkDown, U: 0, V: 1})
	deltas := dynamic.Diff(old, up.Assignment())
	var node0 *dynamic.NodeDelta
	for i := range deltas {
		if deltas[i].Node == 0 {
			node0 = &deltas[i]
		}
	}
	if node0 == nil || len(node0.TXGone) != 1 || len(node0.RXGone) != 1 {
		t.Fatalf("node 0 should lose one TX and one RX slot: %+v", deltas)
	}
}

// TestDiffNodeZeroPeer pins re-deployment entries whose peer is node 0: a
// node id of 0 is a real peer, not "no entry".
func TestDiffNodeZeroPeer(t *testing.T) {
	for _, a := range []graph.Arc{{From: 1, To: 0}, {From: 0, To: 1}} {
		deltas := dynamic.Diff(coloring.Assignment{}, coloring.Assignment{a: 3})
		want := []dynamic.NodeDelta{
			{Node: 0, TXAdded: map[int]int{}, RXAdded: map[int]int{}},
			{Node: 1, TXAdded: map[int]int{}, RXAdded: map[int]int{}},
		}
		want[a.From].TXAdded[3] = a.To
		want[a.To].RXAdded[3] = a.From
		if !reflect.DeepEqual(deltas, want) {
			t.Errorf("Diff({} -> {%v: 3}) = %+v, want %+v", a, deltas, want)
		}
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	events := []dynamic.Event{
		{Kind: dynamic.LinkUp, U: 3, V: 7},
		{Kind: dynamic.LinkDown, U: 0, V: 1},
		{Kind: dynamic.NodeFail, U: 5},
		{Kind: dynamic.NodeJoin, U: 2, Peers: []int{1, 4, 6}},
		{Kind: dynamic.NodeMove, U: 9, Peers: []int{0}},
	}
	data, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var back []dynamic.Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("round trip: %v -> %s -> %v", events, data, back)
	}
	// The wire form uses the String() names, not raw ints.
	if !strings.Contains(string(data), `"kind":"link-up"`) {
		t.Fatalf("wire form: %s", data)
	}
}

func TestEventJSONRejectsUnknownKind(t *testing.T) {
	var ev dynamic.Event
	if err := json.Unmarshal([]byte(`{"kind":"teleport","u":1,"v":2}`), &ev); err == nil {
		t.Fatal("unknown kind should fail to decode")
	}
	if _, err := json.Marshal(dynamic.Event{Kind: dynamic.EventKind(42)}); err == nil {
		t.Fatal("invalid kind should fail to encode")
	}
}

func TestParseEventKind(t *testing.T) {
	for k := dynamic.LinkUp; k <= dynamic.NodeMove; k++ {
		got, err := dynamic.ParseEventKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseEventKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := dynamic.ParseEventKind("nope"); err == nil {
		t.Error("ParseEventKind should reject unknown names")
	}
}
