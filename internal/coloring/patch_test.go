package coloring

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"fdlsp/internal/graph"
)

// TestConflictCachePatchMatchesRebuild drives a random mutation stream
// through a warm conflict cache and, after every flip, compares each live
// arc's patched conflict row against a cold rebuild on an identical graph
// and against the sort-based reference builder. This is the package-local
// half of the conformance patch-vs-rebuild oracle.
func TestConflictCachePatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 14
	g := graph.GNM(n, 24, rng)
	// Warm both topology and conflict caches so mutations take the patch
	// path from the first flip.
	for _, a := range g.ArcsView() {
		_ = ConflictingArcs(g, a)
	}

	for step := 0; step < 300; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			g.RemoveEdge(u, v)
		} else {
			g.AddEdge(u, v)
		}

		ref := g.Clone() // cold caches: rows computed from scratch
		refArcs := ref.ArcsView()
		gotArcs := g.ArcsView()
		if !reflect.DeepEqual(gotArcs, refArcs) {
			t.Fatalf("step %d: arc sets diverge", step)
		}
		for _, a := range gotArcs {
			got := ConflictingArcs(g, a)
			want := ConflictingArcs(ref, a)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: conflict row of %v diverges\n patched: %v\n rebuilt: %v",
					step, a, got, want)
			}
			if ref := referenceRow(g, a); !reflect.DeepEqual(got, ref) {
				t.Fatalf("step %d: conflict row of %v diverges\n patched: %v\n reference: %v",
					step, a, got, ref)
			}
		}
	}

	st := CacheStats(g)
	if st.Builds != 1 {
		t.Fatalf("cache rebuilt %d times across a patched mutation stream, want 1", st.Builds)
	}
	if st.Patches == 0 || st.PatchedArcs == 0 {
		t.Fatalf("no patches recorded: %+v", st)
	}
}

// TestConflictCacheBatchedSync: k flips between reads cost one patch, not k.
func TestConflictCacheBatchedSync(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ConnectedGNM(10, 14, rng)
	_ = ConflictingArcs(g, g.ArcsView()[0])
	before := CacheStats(g)

	g.AddEdge(0, 5)
	g.AddEdge(1, 6)
	g.RemoveEdge(0, 5)
	_ = ConflictingArcs(g, g.ArcsView()[0])

	after := CacheStats(g)
	if d := after.Patches - before.Patches; d != 1 {
		t.Fatalf("3-flip batch cost %d patches, want 1", d)
	}
	if after.Builds != before.Builds {
		t.Fatalf("batch forced a rebuild")
	}
}

// TestConflictCacheRebuildsAfterJournalTruncation: a consumer too far behind
// the bounded journal falls back to a full rebuild and is correct again.
func TestConflictCacheRebuildsAfterJournalTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.ConnectedGNM(8, 10, rng)
	_ = ConflictingArcs(g, g.ArcsView()[0])
	before := CacheStats(g)

	// Far more unread flips than the journal retains.
	for i := 0; i < 1500; i++ {
		if g.HasEdge(0, 5) {
			g.RemoveEdge(0, 5)
		} else {
			g.AddEdge(0, 5)
		}
	}
	for _, a := range g.ArcsView() {
		got := ConflictingArcs(g, a)
		want := referenceRow(g, a)
		if !reflect.DeepEqual(append([]graph.Arc{}, got...), want) {
			t.Fatalf("row of %v wrong after truncation fallback", a)
		}
	}
	after := CacheStats(g)
	if after.Builds != before.Builds+1 {
		t.Fatalf("truncated journal should cost exactly one rebuild: %+v -> %+v", before, after)
	}
}

// checkDroppedBatch warms g's conflict cache, applies mutate as one batch and
// syncs the cache once. Every row of a live arc incident to S = E ∪ N(E), E
// the flipped edges' endpoints, must be dropped (nil in the raw table until
// read), every other row must be the very slice it was before the batch, the
// patched-row count must be the number of dropped rows, and every live row
// read through the cache must equal a fresh rowBuilder row byte for byte. It
// returns the pre-batch rows.
func checkDroppedBatch(t *testing.T, g *graph.Graph, mutate func(*graph.Graph)) map[graph.Arc][]graph.Arc {
	t.Helper()
	before := make(map[graph.Arc][]graph.Arc)
	for _, a := range g.ArcsView() {
		before[a] = ConflictingArcs(g, a)
	}
	raw := slices.Clone(cacheOf(g).conflicts)
	st0 := CacheStats(g)
	epoch := g.MutEpoch()
	mutate(g)
	ds, ok := g.EdgeDeltasSince(epoch)
	if !ok || len(ds) == 0 {
		t.Fatalf("batch left no journal: ok=%v deltas=%d", ok, len(ds))
	}
	inS := make(map[int]bool)
	for _, d := range ds {
		for _, x := range [2]int{d.U, d.V} {
			inS[x] = true
			for _, w := range g.NeighborsView(x) {
				inS[w] = true
			}
		}
	}
	st1 := CacheStats(g)
	if st1.Patches != st0.Patches+1 || st1.Builds != st0.Builds {
		t.Fatalf("batch did not sync as one patch: %+v -> %+v", st0, st1)
	}
	cc := cacheOf(g)
	dropped := 0
	for _, a := range g.ArcsView() {
		id, _ := g.ArcIndex(a)
		got := cc.conflicts[id]
		if inS[a.From] || inS[a.To] {
			dropped++
			if got != nil {
				t.Fatalf("row of %v incident to S was not dropped: %v", a, got)
			}
		} else if got == nil || unsafe.SliceData(got) != unsafe.SliceData(raw[id]) || len(got) != len(raw[id]) {
			t.Fatalf("row of %v outside S is not the pre-batch slice", a)
		}
	}
	if d := st1.PatchedArcs - st0.PatchedArcs; d != uint64(dropped) {
		t.Fatalf("patch counted %d patched rows, %d rows were dropped", d, dropped)
	}
	rb := new(rowBuilder)
	rb.fit(g.N())
	for _, a := range g.ArcsView() {
		id, _ := g.ArcIndex(a)
		got := cc.row(int32(id))
		if want := rb.row(g, a, int32(id)); !slices.Equal(got, want) {
			t.Fatalf("row of %v\n got: %v\nfresh: %v", a, got, want)
		}
		if !(inS[a.From] || inS[a.To]) && !slices.Equal(ConflictingArcs(g, a), before[a]) {
			t.Fatalf("row of %v outside S changed", a)
		}
	}
	return before
}

// TestConflictCacheDropRows pins which rows a patch drops, and the rows
// rebuilt from them, on hand-built batches on a 4×4 grid (node r·4+c):
//
//	 0  1  2  3
//	 4  5  6  7
//	 8  9 10 11
//	12 13 14 15
func TestConflictCacheDropRows(t *testing.T) {
	arc := func(u, v int) graph.Arc { return graph.Arc{From: u, To: v} }

	t.Run("neighbouring flips", func(t *testing.T) {
		// Flip endpoint 5 neighbours flip endpoint 6: rows around both
		// gain the new diagonal and lose the removed link together.
		g := graph.Grid(4, 4)
		before := checkDroppedBatch(t, g, func(g *graph.Graph) {
			g.AddEdge(0, 5)
			g.RemoveEdge(6, 10)
		})
		// (1,2): 1 ∈ N(5) and 2 ∈ N(6), neither flipped; its row gains
		// (0,5) (head 5 ∈ N(1)) and loses nothing it held of {6,10}.
		if row := ConflictingArcs(g, arc(1, 2)); !slices.Contains(row, arc(0, 5)) ||
			slices.Contains(before[arc(1, 2)], arc(0, 5)) {
			t.Fatalf("row of (1,2) did not gain (0,5): %v", row)
		}
		// (9,8): 9 ∈ N(5) ∩ N(10); (6,10) was in its row (head 10 ∈ N(9))
		// and must be gone.
		if !slices.Contains(before[arc(9, 8)], arc(6, 10)) ||
			slices.Contains(ConflictingArcs(g, arc(9, 8)), arc(6, 10)) {
			t.Fatalf("row of (9,8) kept (6,10): %v", ConflictingArcs(g, arc(9, 8)))
		}
	})

	t.Run("remove and re-add recycles ids", func(t *testing.T) {
		g := graph.Grid(4, 4)
		_ = ConflictingArcs(g, arc(0, 1))
		uv, _ := g.ArcIndex(arc(5, 9))
		vu, _ := g.ArcIndex(arc(9, 5))
		bound := g.ArcIDBound()
		before := checkDroppedBatch(t, g, func(g *graph.Graph) {
			g.RemoveEdge(5, 9)
			g.AddEdge(5, 9)
		})
		nuv, _ := g.ArcIndex(arc(5, 9))
		nvu, _ := g.ArcIndex(arc(9, 5))
		if g.ArcIDBound() != bound || nuv != vu || nvu != uv {
			t.Fatalf("ids not recycled across the batch: (5,9) %d->%d, (9,5) %d->%d, bound %d->%d",
				uv, nuv, vu, nvu, bound, g.ArcIDBound())
		}
		// The far row of (4,0) (4 ∈ N(5)) is dropped and rebuilt: both arcs
		// of the flipped edge leave and come back at their old positions.
		if !slices.Equal(ConflictingArcs(g, arc(4, 0)), before[arc(4, 0)]) {
			t.Fatal("row of (4,0) changed across a remove-and-re-add")
		}
	})

	t.Run("removal drops far rows", func(t *testing.T) {
		g := graph.Grid(4, 4)
		before := checkDroppedBatch(t, g, func(g *graph.Graph) { g.RemoveEdge(5, 6) })
		// (1,2): tail 6 of (6,5) is in N(2), so (6,5) conflicted with it;
		// neither 1 nor 2 is a flip endpoint, yet its row must lose it.
		if !slices.Contains(before[arc(1, 2)], arc(6, 5)) {
			t.Fatalf("(6,5) was not in the row of (1,2) before the removal: %v", before[arc(1, 2)])
		}
		for _, a := range []graph.Arc{arc(1, 2), arc(2, 1), arc(9, 10), arc(13, 9)} {
			row := ConflictingArcs(g, a)
			if slices.Contains(row, arc(5, 6)) || slices.Contains(row, arc(6, 5)) {
				t.Fatalf("row of %v still holds the removed link: %v", a, row)
			}
		}
	})
}

// TestConflictCacheDropRecycledIDs pins dropped rows across recycled ids:
// freed ids are reused LIFO within a batch, so a batch that removes a link
// and then adds another gives the removed arcs' ids to the new link's arcs,
// while rows built before the batch still hold them. Every such row must be
// dropped, and every row read afterwards must equal a fresh build.
func TestConflictCacheDropRecycledIDs(t *testing.T) {
	arc := func(u, v int) graph.Arc { return graph.Arc{From: u, To: v} }

	t.Run("grid", func(t *testing.T) {
		// 4×4 grid as in TestConflictCacheDropRows. (6,5) sits in the row
		// of (1,2), which is dropped (1 ∈ N(5), 2 ∈ N(6)); the new link
		// {9,14} takes its id but does not conflict with (1,2).
		g := graph.Grid(4, 4)
		_ = CacheStats(g)
		id65, _ := g.ArcIndex(arc(6, 5))
		before := checkDroppedBatch(t, g, func(g *graph.Graph) {
			g.RemoveEdge(5, 6)
			g.AddEdge(9, 14)
		})
		if id, _ := g.ArcIndex(arc(9, 14)); id != id65 {
			t.Fatalf("(9,14) got id %d, want the freed id %d of (6,5)", id, id65)
		}
		if !slices.Contains(before[arc(1, 2)], arc(6, 5)) {
			t.Fatalf("(6,5) was not in the row of (1,2): %v", before[arc(1, 2)])
		}
		if row := ConflictingArcs(g, arc(1, 2)); slices.Contains(row, arc(9, 14)) || slices.Contains(row, arc(6, 5)) {
			t.Fatalf("row of (1,2) kept the recycled id: %v", row)
		}
	})

	t.Run("stream", func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		const n = 24
		g := graph.ConnectedGNM(n, 60, rng)
		_ = CacheStats(g)
		held := 0
		for batch := 0; batch < 120; batch++ {
			edges := g.Edges()
			drop := edges[rng.Intn(len(edges))]
			var add graph.Edge
			for {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v && !g.HasEdge(u, v) && graph.NormEdge(u, v) != drop {
					add = graph.NormEdge(u, v)
					break
				}
			}
			freed, _ := g.ArcIndex(graph.Arc{From: drop.U, To: drop.V})
			before := checkDroppedBatch(t, g, func(g *graph.Graph) {
				g.RemoveEdge(drop.U, drop.V)
				g.AddEdge(add.U, add.V)
			})
			// Count batches where a row of a surviving arc held the
			// recycled id before the batch.
			for a, row := range before {
				if slices.Contains(row, graph.Arc{From: drop.U, To: drop.V}) && g.HasEdge(a.From, a.To) {
					if id, _ := g.ArcIndex(graph.Arc{From: add.V, To: add.U}); id == freed {
						held++
						break
					}
				}
			}
		}
		if held == 0 {
			t.Fatal("no batch left a recycled id in an old row")
		}
	})
}

// TestConflictCacheShareKeepsDroppedRows: a graph.CloneShared clone of a
// patched graph adopts its cache with the dropped rows still dropped and
// rebuilds them against itself on first read, leaving the source's table
// as it was; a later flip of either graph patches only its own cache.
func TestConflictCacheShareKeepsDroppedRows(t *testing.T) {
	check := func(g *graph.Graph, label string) {
		t.Helper()
		for _, a := range g.ArcsView() {
			if got, want := ConflictingArcs(g, a), referenceRow(g, a); !slices.Equal(got, want) {
				t.Fatalf("%s: row of %v\n got: %v\n  ref: %v", label, a, got, want)
			}
		}
	}
	g := graph.Grid(4, 4) // as in TestConflictCacheDropRows
	_ = CacheStats(g)
	g.RemoveEdge(5, 6)
	_ = CacheStats(g)
	src := cacheOf(g)
	c := g.CloneShared()
	cc := cacheOf(c)
	if cc == src || !cc.dropped.Load() || CacheStats(c).Builds != 0 {
		t.Fatalf("clone did not adopt the patched cache: %+v", CacheStats(c))
	}
	check(c, "clone")
	id, _ := g.ArcIndex(graph.Arc{From: 1, To: 2})
	if src.conflicts[id] != nil {
		t.Fatal("the clone's reads rebuilt a row of the source's table")
	}
	c.AddEdge(0, 5)
	g.AddEdge(9, 14)
	check(c, "clone after a flip")
	check(g, "source after a flip")
}

// TestConflictCachePatchedConcurrentReads reads a patched cache — its
// dropped rows rebuilt on first read, under the cache mutex — from four
// goroutines at once, through ConflictingArcs and AuditArcs, each in its
// own arc order, and compares every row and audit against a cold build of
// the same topology. Run under -race it pins the locked read path.
func TestConflictCachePatchedConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 200
	g := graph.ConnectedGNM(n, 600, rng)
	as := Greedy(g, nil) // warm cache; a schedule the batch then breaks
	for k := 0; k < 12; k++ {
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		g.RemoveEdge(e.U, e.V)
		for {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				break
			}
		}
	}
	ref := g.Clone() // cold caches: every row built from scratch
	arcs := g.ArcsView()
	slots, refSlots := SlotsOf(g, as), SlotsOf(ref, as)
	wantRows := make([][]graph.Arc, len(arcs))
	for i, a := range arcs {
		wantRows[i] = ConflictingArcs(ref, a)
	}
	const readers = 4
	ids := make([][]int32, readers)
	wantAudit := make([][]Violation, readers)
	for r := range readers {
		refIDs := make([]int32, len(arcs))
		for i := range arcs {
			a := arcs[(i+r*len(arcs)/readers)%len(arcs)]
			id, _ := g.ArcIndex(a)
			refID, _ := ref.ArcIndex(a)
			ids[r] = append(ids[r], int32(id))
			refIDs[i] = int32(refID)
		}
		wantAudit[r] = AuditArcs(ref, refSlots, refIDs)
	}
	if len(wantAudit[0]) == 0 {
		t.Fatal("the batch left the schedule clean; the audit checks nothing")
	}

	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range arcs {
				k := (i + r*len(arcs)/readers) % len(arcs)
				if got := ConflictingArcs(g, arcs[k]); !slices.Equal(got, wantRows[k]) {
					errs <- fmt.Errorf("reader %d: row of %v\n got: %v\nfresh: %v", r, arcs[k], got, wantRows[k])
					return
				}
			}
			if got := AuditArcs(g, slots, ids[r]); !reflect.DeepEqual(got, wantAudit[r]) {
				errs <- fmt.Errorf("reader %d: audit diverges from a cold build\n got: %v\nwant: %v", r, got, wantAudit[r])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := CacheStats(g); st.Builds != 1 || st.Patches != 1 {
		t.Fatalf("want one build and one patch, got %+v", st)
	}
}
