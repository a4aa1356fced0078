package coloring

import (
	"math/rand"
	"reflect"
	"testing"

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
