package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// freshViews rebuilds the topology from scratch on a clone and returns the
// reference views for comparison against the patched cache.
type views struct {
	nbrs     [][]int
	incident [][]Arc
	out      [][]Arc
	in       [][]Arc
	arcs     []Arc
}

func snapshotViews(g *Graph) views {
	n := g.N()
	v := views{
		nbrs:     make([][]int, n),
		incident: make([][]Arc, n),
		out:      make([][]Arc, n),
		in:       make([][]Arc, n),
		arcs:     append([]Arc(nil), g.ArcsView()...),
	}
	for x := 0; x < n; x++ {
		v.nbrs[x] = append([]int(nil), g.NeighborsView(x)...)
		v.incident[x] = append([]Arc(nil), g.IncidentArcsView(x)...)
		v.out[x] = append([]Arc(nil), g.OutArcsView(x)...)
		v.in[x] = append([]Arc(nil), g.InArcsView(x)...)
	}
	return v
}

// TestPatchedViewsMatchRebuild drives a random mutation stream through a
// graph whose cache is kept warm (so every mutation takes the patch path)
// and checks after each step that all views are identical to those of a
// freshly built cache on an equal graph.
func TestPatchedViewsMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 12
	g := GNM(n, 20, rng)
	_ = g.ArcsView() // warm the cache so mutations patch instead of rebuild

	for step := 0; step < 400; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			g.RemoveEdge(u, v)
		} else {
			g.AddEdge(u, v)
		}

		ref := g.Clone() // fresh graph, cold cache → full rebuild
		got, want := snapshotViews(g), snapshotViews(ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: patched views diverge from rebuild after flip {%d,%d}", step, u, v)
		}

		// Stable-id invariants: every live arc has a unique id below the
		// bound, and lookups agree with the arc set.
		seen := make(map[int]Arc)
		bound := g.ArcIDBound()
		for _, a := range got.arcs {
			id, ok := g.ArcIndex(a)
			if !ok {
				t.Fatalf("step %d: live arc %v missing from index", step, a)
			}
			if id < 0 || id >= bound {
				t.Fatalf("step %d: arc %v id %d outside [0,%d)", step, a, id, bound)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("step %d: id %d assigned to both %v and %v", step, id, prev, a)
			}
			seen[id] = a
			if got := g.ArcsByIDView()[id]; got != a {
				t.Fatalf("step %d: id table names %v for %v's id %d", step, got, a, id)
			}
		}
		// The id views match the arc views entry for entry, and the
		// tables of OutRowsView are the per-node views.
		nbrs, outIDs := g.OutRowsView()
		for x := 0; x < n; x++ {
			for i, a := range g.OutArcsView(x) {
				if id, _ := g.ArcIndex(a); g.OutArcIDsView(x)[i] != int32(id) {
					t.Fatalf("step %d: out id view of %d disagrees at %v", step, x, a)
				}
			}
			if !slices.Equal(nbrs[x], g.NeighborsView(x)) || !slices.Equal(outIDs[x], g.OutArcIDsView(x)) {
				t.Fatalf("step %d: OutRowsView row of %d differs from the per-node views", step, x)
			}
			for i, a := range g.IncidentArcsView(x) {
				if id, _ := g.ArcIndex(a); g.IncidentArcIDsView(x)[i] != int32(id) {
					t.Fatalf("step %d: incident id view of %d disagrees at %v", step, x, a)
				}
			}
		}
		if len(seen) != 2*g.M() {
			t.Fatalf("step %d: %d ids for %d arcs", step, len(seen), 2*g.M())
		}
	}
}

// TestArcIDsStableAcrossPatches checks that arcs untouched by a mutation
// keep their ids, and that removed ids are recycled before the bound grows.
func TestArcIDsStableAcrossPatches(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(4, 5)
	_ = g.ArcsView()

	before := make(map[Arc]int)
	for _, a := range g.ArcsView() {
		id, _ := g.ArcIndex(a)
		before[a] = id
	}
	bound := g.ArcIDBound()

	g.RemoveEdge(2, 3)
	for a, id := range before {
		if a.Edge() == NormEdge(2, 3) {
			continue
		}
		got, ok := g.ArcIndex(a)
		if !ok || got != id {
			t.Fatalf("arc %v id changed %d -> %d (ok=%v) across unrelated removal", a, id, got, ok)
		}
	}

	g.AddEdge(1, 2) // should reuse the two freed ids
	if g.ArcIDBound() != bound {
		t.Fatalf("ArcIDBound grew %d -> %d despite free ids", bound, g.ArcIDBound())
	}
}

// TestEdgeDeltaJournal covers the epoch/journal contract: deltas replay the
// exact mutation sequence, truncation is reported, and wholesale loads break
// continuity.
func TestEdgeDeltaJournal(t *testing.T) {
	g := New(8)
	_ = g.ArcsView()
	e0 := g.MutEpoch()

	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.RemoveEdge(0, 1)

	ds, ok := g.EdgeDeltasSince(e0)
	if !ok || len(ds) != 3 {
		t.Fatalf("EdgeDeltasSince = %v, %v; want 3 deltas", ds, ok)
	}
	want := []struct {
		u, v  int
		added bool
	}{{0, 1, true}, {1, 2, true}, {0, 1, false}}
	for i, w := range want {
		if ds[i].U != w.u || ds[i].V != w.v || ds[i].Added != w.added {
			t.Fatalf("delta %d = %+v, want {%d %d %v}", i, ds[i], w.u, w.v, w.added)
		}
	}
	// The removal must report the same ids the addition assigned.
	if ds[2].IDUV != ds[0].IDUV || ds[2].IDVU != ds[0].IDVU {
		t.Fatalf("removal ids %+v don't match addition ids %+v", ds[2], ds[0])
	}

	// Caught-up consumer sees an empty, valid tail.
	if ds, ok := g.EdgeDeltasSince(g.MutEpoch()); !ok || len(ds) != 0 {
		t.Fatalf("caught-up EdgeDeltasSince = %v, %v", ds, ok)
	}

	// A future epoch is unanswerable.
	if _, ok := g.EdgeDeltasSince(g.MutEpoch() + 1); ok {
		t.Fatal("EdgeDeltasSince accepted a future epoch")
	}

	// Overflow the bounded journal: continuity from e0 must be lost but a
	// recent epoch still replays.
	mid := g.MutEpoch()
	for i := 0; i < 3*maxTopoJournal; i++ {
		if i%2 == 0 {
			g.AddEdge(3, 4)
		} else {
			g.RemoveEdge(3, 4)
		}
	}
	if _, ok := g.EdgeDeltasSince(e0); ok {
		t.Fatal("journal claimed continuity across overflow")
	}
	if _, ok := g.EdgeDeltasSince(mid); ok {
		t.Fatal("journal claimed continuity across overflow from mid epoch")
	}
	if ds, ok := g.EdgeDeltasSince(g.MutEpoch() - 5); !ok || len(ds) != 5 {
		t.Fatalf("recent tail: %d deltas, ok=%v; want 5, true", len(ds), ok)
	}
}

// TestMutationWithColdCacheBreaksContinuity: a mutation with no cache built
// takes the fallback path and resets the journal.
func TestMutationWithColdCacheBreaksContinuity(t *testing.T) {
	g := New(4)
	e0 := g.MutEpoch()
	g.AddEdge(0, 1) // cold cache → no journal entry
	if _, ok := g.EdgeDeltasSince(e0); ok {
		t.Fatal("cold-cache mutation left journal claiming continuity")
	}
	_ = g.ArcsView()
	e1 := g.MutEpoch()
	g.AddEdge(1, 2)
	if ds, ok := g.EdgeDeltasSince(e1); !ok || len(ds) != 1 {
		t.Fatalf("warm-cache mutation not journaled: %v, %v", ds, ok)
	}
}

// TestSetTopoPatching: with patching off every mutation invalidates the
// cache and never journals; re-enabling restores the patch path.
func TestSetTopoPatching(t *testing.T) {
	g := New(4)
	g.SetTopoPatching(false)
	_ = g.ArcsView()
	e := g.MutEpoch()
	g.AddEdge(0, 1)
	if g.cache.Load() != nil {
		t.Fatal("mutation with patching disabled kept the cache")
	}
	if _, ok := g.EdgeDeltasSince(e); ok {
		t.Fatal("mutation with patching disabled was journaled")
	}
	g.SetTopoPatching(true)
	_ = g.ArcsView()
	e = g.MutEpoch()
	g.AddEdge(1, 2)
	if g.cache.Load() == nil {
		t.Fatal("patch path did not keep the cache after re-enabling")
	}
	if ds, ok := g.EdgeDeltasSince(e); !ok || len(ds) != 1 {
		t.Fatalf("re-enabled patching not journaled: %v, %v", ds, ok)
	}
}

// TestPatchPreservesOldViews: view slices handed out before a mutation are
// not written through by the copy-on-write patch.
func TestPatchPreservesOldViews(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	nbrs := g.NeighborsView(1)
	inc := g.IncidentArcsView(1)
	arcs := g.ArcsView()
	wantNbrs := append([]int(nil), nbrs...)
	wantInc := append([]Arc(nil), inc...)
	wantArcs := append([]Arc(nil), arcs...)

	g.AddEdge(1, 3)
	g.RemoveEdge(0, 1)

	if !reflect.DeepEqual(nbrs, wantNbrs) || !reflect.DeepEqual(inc, wantInc) || !reflect.DeepEqual(arcs, wantArcs) {
		t.Fatal("patch mutated previously returned view slices")
	}
}

// TestAuxDroppedOnPatchUnlessPatchable: plain aux values vanish on any
// mutation; AuxPatchable values survive the patch path.
type patchableAux struct{ n int }

func (*patchableAux) AuxSurvivesMutation() {}

func TestAuxDroppedOnPatchUnlessPatchable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	_ = g.ArcsView()

	type plainKey struct{}
	type survivorKey struct{}
	plainBuilds, survivorBuilds := 0, 0
	getPlain := func() any {
		return g.Aux(plainKey{}, func() any { plainBuilds++; return &struct{}{} })
	}
	getSurvivor := func() any {
		return g.Aux(survivorKey{}, func() any { survivorBuilds++; return &patchableAux{} })
	}
	getPlain()
	getSurvivor()
	g.AddEdge(1, 2) // warm cache → patch path
	getPlain()
	getSurvivor()
	if plainBuilds != 2 {
		t.Fatalf("plain aux rebuilt %d times, want 2 (dropped on patch)", plainBuilds)
	}
	if survivorBuilds != 1 {
		t.Fatalf("patchable aux rebuilt %d times, want 1 (survives patch)", survivorBuilds)
	}
}

// TestCloneSharedKeepsIDs: a CloneShared clone starts from the source's
// cache — same views, same arc ids, the source's free list included — and
// afterwards each graph patches its own tables without showing through to
// the other.
func TestCloneSharedKeepsIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 12
	g := GNM(n, 24, rng)
	_ = g.ArcsView()
	e := g.Edges()[3]
	g.RemoveEdge(e.U, e.V) // leave a free id behind
	want := snapshotViews(g)
	ids := make(map[Arc]int)
	for _, a := range g.ArcsView() {
		ids[a], _ = g.ArcIndex(a)
	}

	c := g.CloneShared()
	if !c.Equal(g) || !reflect.DeepEqual(snapshotViews(c), want) {
		t.Fatal("clone's views differ from the source's")
	}
	for a, id := range ids {
		if got, ok := c.ArcIndex(a); !ok || got != id || c.ArcsByIDView()[id] != a {
			t.Fatalf("clone gives %v id %d (ok=%v), source %d", a, got, ok, id)
		}
	}
	if c.ArcIDBound() != g.ArcIDBound() {
		t.Fatalf("clone bound %d, source %d", c.ArcIDBound(), g.ArcIDBound())
	}

	// Mutate both: neither sees the other's change.
	c.AddEdge(e.U, e.V)
	u, v := 0, 1
	for g.HasEdge(u, v) || (NormEdge(u, v) == e) {
		v++
	}
	g.AddEdge(u, v)
	if !reflect.DeepEqual(snapshotViews(g), snapshotViews(g.Clone())) ||
		!reflect.DeepEqual(snapshotViews(c), snapshotViews(c.Clone())) {
		t.Fatal("a patch of one graph showed through to the other")
	}
	if c.HasEdge(u, v) || g.HasEdge(e.U, e.V) {
		t.Fatal("edge sets leaked between source and clone")
	}
	for _, h := range []*Graph{g, c} {
		for _, a := range h.ArcsView() {
			id, _ := h.ArcIndex(a)
			if h.ArcsByIDView()[id] != a {
				t.Fatalf("id table of %v names %v", a, h.ArcsByIDView()[id])
			}
		}
	}
}
