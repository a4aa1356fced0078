package core

import (
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/graph"
)

func TestKnowledgeRecordAndAnnounce(t *testing.T) {
	g := graph.Path(4)
	k := newKnowledge(1, g, 2)
	a := graph.Arc{From: 1, To: 2}
	k.record(a, 3)
	floods := k.announceOwn([]graph.Arc{a})
	if len(floods) != 1 || floods[0].TTL != 2 || floods[0].Color != 3 || floods[0].Origin != 1 {
		t.Fatalf("announce = %v", floods)
	}
	// Re-announcing the same arc is a no-op.
	if floods := k.announceOwn([]graph.Arc{a}); len(floods) != 0 {
		t.Errorf("duplicate announce emitted %v", floods)
	}
}

func TestKnowledgeRecolorPanics(t *testing.T) {
	g := graph.Path(3)
	k := newKnowledge(0, g, 2)
	k.record(graph.Arc{From: 0, To: 1}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on recolor")
		}
	}()
	k.record(graph.Arc{From: 0, To: 1}, 2)
}

func TestKnowledgeAnnounceUncoloredPanics(t *testing.T) {
	g := graph.Path(3)
	k := newKnowledge(0, g, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.announceOwn([]graph.Arc{{From: 0, To: 1}})
}

func TestKnowledgeObserveRelaysAndEndpointRule(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	// Node 2 observes a flood about arc (0,1) — not incident: relay only.
	k2 := newKnowledge(2, g, 2)
	out := k2.observe(ColorAnnounce{Arc: graph.Arc{From: 0, To: 1}, Color: 5, Origin: 0, TTL: 2})
	if len(out) != 1 || out[0].TTL != 1 {
		t.Fatalf("relay = %v", out)
	}
	if k2.Color(graph.Arc{From: 0, To: 1}) != 5 {
		t.Error("color not learned")
	}
	// Duplicate from the same origin: swallowed.
	if out := k2.observe(ColorAnnounce{Arc: graph.Arc{From: 0, To: 1}, Color: 5, Origin: 0, TTL: 2}); len(out) != 0 {
		t.Errorf("duplicate produced %v", out)
	}
	// Node 1 observes a flood about its OWN arc (1,2): endpoint rule fires
	// an extra flood from node 1.
	k1 := newKnowledge(1, g, 2)
	out = k1.observe(ColorAnnounce{Arc: graph.Arc{From: 1, To: 2}, Color: 7, Origin: 2, TTL: 2})
	foundOwn := false
	for _, f := range out {
		if f.Origin == 1 && f.Arc == (graph.Arc{From: 1, To: 2}) && f.TTL == 2 {
			foundOwn = true
		}
	}
	if !foundOwn {
		t.Errorf("endpoint rule did not fire: %v", out)
	}
	// Exhausted TTL: no relay, but learning still happens.
	k3 := newKnowledge(3, g, 2)
	out = k3.observe(ColorAnnounce{Arc: graph.Arc{From: 0, To: 1}, Color: 5, Origin: 1, TTL: 1})
	if len(out) != 0 {
		t.Errorf("TTL-1 flood relayed: %v", out)
	}
	if k3.Color(graph.Arc{From: 0, To: 1}) != 5 {
		t.Error("TTL-1 flood not learned")
	}
}

func TestKnowledgeSnapshotLocalFilters(t *testing.T) {
	g := graph.Path(5) // 0-1-2-3-4
	k := newKnowledge(1, g, 2)
	near := graph.Arc{From: 2, To: 1} // incident to 1
	mid := graph.Arc{From: 2, To: 3}  // incident to 1's neighbor 2
	far := graph.Arc{From: 3, To: 4}  // known to 1, but outside its distance-1 view
	k.record(near, 1)
	k.record(mid, 2)
	k.record(far, 3)
	snap := k.snapshotLocal()
	got := make(map[graph.Arc]int, len(snap))
	for i, e := range snap {
		got[e.Arc] = e.Color
		if i > 0 && !less(snap[i-1].Arc, e.Arc) {
			t.Errorf("snapshot not sorted: %v before %v", snap[i-1].Arc, e.Arc)
		}
	}
	if got[near] != 1 || got[mid] != 2 {
		t.Errorf("local arcs missing from snapshot: %v", snap)
	}
	if _, ok := got[far]; ok {
		t.Errorf("far arc leaked into snapshot: %v", snap)
	}
}

func TestKnowledgeMerge(t *testing.T) {
	g := graph.Path(3)
	k := newKnowledge(0, g, 2)
	k.merge([]arcColor{
		{Arc: graph.Arc{From: 0, To: 1}, Color: 4},
		{Arc: graph.Arc{From: 1, To: 2}, Color: coloring.None}, // ignored
	})
	if k.Color(graph.Arc{From: 0, To: 1}) != 4 {
		t.Error("merge lost a color")
	}
	if k.Color(graph.Arc{From: 1, To: 2}) != coloring.None {
		t.Error("merge invented a color")
	}
}
