package incr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
)

func newUpdater(t *testing.T, n, m int, seed int64) *Updater {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ConnectedGNM(n, m, rng)
	up, err := New(g, coloring.Greedy(g, nil))
	if err != nil {
		t.Fatal(err)
	}
	return up
}

// randomEvent draws a valid link flip against topology g (an updater's
// current graph, or a client's shadow of it), mirroring what a well-behaved
// client would send. Flips alternate add/remove around the current edge
// count so the stream holds density flat instead of drifting toward a
// complete graph; drops keep every endpoint's degree positive.
func randomEvent(g *graph.Graph, targetM int, rng *rand.Rand) dynamic.Event {
	if g.M() > targetM {
		for {
			e := g.Edges()[rng.Intn(g.M())]
			if g.Degree(e.U) <= 1 || g.Degree(e.V) <= 1 {
				continue
			}
			return dynamic.Event{Kind: dynamic.LinkDown, U: e.U, V: e.V}
		}
	}
	for {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v || g.HasEdge(u, v) {
			continue
		}
		return dynamic.Event{Kind: dynamic.LinkUp, U: u, V: v}
	}
}

// TestApplyKeepsScheduleValid drives a long random stream of single-event
// and multi-event batches and verifies the maintained schedule is complete
// and conflict-free after every update.
func TestApplyKeepsScheduleValid(t *testing.T) {
	up := newUpdater(t, 24, 60, 1)
	targetM := up.Graph().M()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		rep, err := up.Apply([]dynamic.Event{randomEvent(up.Graph(), targetM, rng)})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
			t.Fatalf("update %d: %d violations, first %v", i, len(viols), viols[0])
		}
		if rep.FrameLength != up.Slots() {
			t.Fatalf("update %d: reported frame %d, live %d", i, rep.FrameLength, up.Slots())
		}
	}
}

// TestRecolorSetConfinedToTwoHops is the acceptance criterion: every arc an
// update recolors lies within the 2-hop neighborhood of the batch's delta
// endpoints.
func TestRecolorSetConfinedToTwoHops(t *testing.T) {
	up := newUpdater(t, 40, 100, 3)
	targetM := up.Graph().M()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		ev := randomEvent(up.Graph(), targetM, rng)
		rep, err := up.Apply([]dynamic.Event{ev})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		near := map[int]bool{ev.U: true, ev.V: true}
		for _, x := range []int{ev.U, ev.V} {
			for _, w := range up.Graph().Within(x, 2) {
				near[w] = true
			}
		}
		for _, rc := range rep.Recolored {
			if !near[rc.From] && !near[rc.To] {
				t.Fatalf("update %d (%v): recolored arc (%d,%d) outside the 2-hop neighborhood",
					i, ev, rc.From, rc.To)
			}
		}
		for _, d := range rep.Dropped {
			if d.From != ev.U && d.From != ev.V && d.To != ev.U && d.To != ev.V {
				t.Fatalf("update %d (%v): dropped arc (%d,%d) not incident to the delta",
					i, ev, d.From, d.To)
			}
		}
	}
}

// TestRecolorDeltaIsMinimal asserts the delta names only arcs whose slot
// actually changed: replaying Recolored+Dropped onto the pre-batch schedule
// must reproduce the post-batch schedule exactly.
func TestRecolorDeltaIsMinimal(t *testing.T) {
	up := newUpdater(t, 24, 60, 5)
	targetM := up.Graph().M()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		before := up.Assignment().Clone()
		ev := randomEvent(up.Graph(), targetM, rng)
		rep, err := up.Apply([]dynamic.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		replayed := before
		for _, d := range rep.Dropped {
			delete(replayed, graph.Arc{From: d.From, To: d.To})
		}
		for _, rc := range rep.Recolored {
			a := graph.Arc{From: rc.From, To: rc.To}
			if replayed[a] == rc.Slot {
				t.Fatalf("update %d: recolor entry %v is a no-op — delta not minimal", i, rc)
			}
			if rc.Slot == coloring.None {
				delete(replayed, a)
			} else {
				replayed[a] = rc.Slot
			}
		}
		if !reflect.DeepEqual(replayed, up.Assignment()) {
			t.Fatalf("update %d: replaying the delta does not reproduce the schedule", i)
		}
	}
}

// TestBatchRollbackIsAtomic feeds batches whose tail event is invalid and
// asserts the topology and schedule come back untouched.
func TestBatchRollbackIsAtomic(t *testing.T) {
	up := newUpdater(t, 16, 30, 7)
	gBefore := up.Graph().Clone()
	asBefore := up.Assignment().Clone()

	// Find a missing edge for the valid head and an existing edge to
	// re-add illegally for the tail.
	var u, v int
	found := false
	for u = 0; u < 16 && !found; u++ {
		for v = u + 1; v < 16; v++ {
			if !gBefore.HasEdge(u, v) {
				found = true
				break
			}
		}
	}
	u--
	ed := gBefore.Edges()[0]
	batch := []dynamic.Event{
		{Kind: dynamic.LinkUp, U: u, V: v},         // valid
		{Kind: dynamic.LinkDown, U: ed.U, V: ed.V}, // valid
		{Kind: dynamic.LinkUp, U: 3, V: 3},         // self link: invalid
	}
	_, err := up.Apply(batch)
	if !errors.Is(err, ErrBadDelta) {
		t.Fatalf("want ErrBadDelta, got %v", err)
	}
	if !up.Graph().Equal(gBefore) {
		t.Fatal("failed batch mutated the topology")
	}
	if !reflect.DeepEqual(up.Assignment(), asBefore) {
		t.Fatal("failed batch mutated the schedule")
	}
	if up.Updates() != 0 {
		t.Fatalf("failed batch counted as an update: %d", up.Updates())
	}
}

// TestBadDeltas enumerates the client-error shapes; every one must wrap
// ErrBadDelta and leave no trace.
func TestBadDeltas(t *testing.T) {
	up := newUpdater(t, 10, 15, 8)
	ed := up.Graph().Edges()[0]
	var missU, missV int
	for missU = 0; missU < 10; missU++ {
		done := false
		for missV = missU + 1; missV < 10; missV++ {
			if !up.Graph().HasEdge(missU, missV) {
				done = true
				break
			}
		}
		if done {
			break
		}
	}
	cases := []struct {
		name string
		ev   dynamic.Event
	}{
		{"node out of range", dynamic.Event{Kind: dynamic.LinkUp, U: 0, V: 99}},
		{"negative node", dynamic.Event{Kind: dynamic.LinkDown, U: -1, V: 2}},
		{"self link", dynamic.Event{Kind: dynamic.LinkUp, U: 4, V: 4}},
		{"link-up on existing edge", dynamic.Event{Kind: dynamic.LinkUp, U: ed.U, V: ed.V}},
		{"link-down on missing edge", dynamic.Event{Kind: dynamic.LinkDown, U: missU, V: missV}},
		{"join peer out of range", dynamic.Event{Kind: dynamic.NodeJoin, U: missU, Peers: []int{404}}},
		{"move peer out of range", dynamic.Event{Kind: dynamic.NodeMove, U: missU, Peers: []int{-2}}},
		{"fail out of range", dynamic.Event{Kind: dynamic.NodeFail, U: 10}},
		{"unknown kind", dynamic.Event{Kind: dynamic.EventKind(42), U: 1, V: 2}},
	}
	for _, tc := range cases {
		if _, err := up.Apply([]dynamic.Event{tc.ev}); !errors.Is(err, ErrBadDelta) {
			t.Errorf("%s: want ErrBadDelta, got %v", tc.name, err)
		}
	}
	if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
		t.Fatalf("bad deltas damaged the schedule: %v", viols[0])
	}
}

// TestNodeLifecycleEvents exercises NodeFail / NodeJoin / NodeMove batches.
func TestNodeLifecycleEvents(t *testing.T) {
	up := newUpdater(t, 20, 50, 9)
	victim := 0
	peers := up.Graph().Neighbors(victim)
	rep, err := up.Apply([]dynamic.Event{{Kind: dynamic.NodeFail, U: victim}})
	if err != nil {
		t.Fatal(err)
	}
	if up.Graph().Degree(victim) != 0 {
		t.Fatal("NodeFail left links behind")
	}
	if len(rep.Dropped) != 2*len(peers) {
		t.Fatalf("NodeFail dropped %d arcs, want %d", len(rep.Dropped), 2*len(peers))
	}
	if _, err := up.Apply([]dynamic.Event{{Kind: dynamic.NodeJoin, U: victim, Peers: peers}}); err != nil {
		t.Fatal(err)
	}
	if up.Graph().Degree(victim) != len(peers) {
		t.Fatal("NodeJoin did not restore the links")
	}
	newPeers := []int{peers[0], (victim + 7) % 20}
	if newPeers[1] == newPeers[0] || up.Graph().HasEdge(victim, newPeers[1]) && newPeers[1] != peers[0] {
		newPeers[1] = (victim + 11) % 20
	}
	if _, err := up.Apply([]dynamic.Event{{Kind: dynamic.NodeMove, U: victim, Peers: newPeers}}); err != nil {
		t.Fatal(err)
	}
	got := up.Graph().Neighbors(victim)
	if len(got) != len(newPeers) {
		t.Fatalf("NodeMove neighbors %v, want %v", got, newPeers)
	}
	if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
		t.Fatalf("lifecycle batch left violations: %v", viols[0])
	}
}

// TestApplyDeterministic runs the same seeded stream through two fresh
// updaters and asserts deeply equal reports — the in-process half of the
// GOMAXPROCS byte-determinism contract the session API test pins over HTTP.
func TestApplyDeterministic(t *testing.T) {
	mk := func() (*Updater, *rand.Rand) {
		rng := rand.New(rand.NewSource(12))
		g := graph.ConnectedGNM(24, 60, rng)
		up, err := New(g, coloring.Greedy(g, nil))
		if err != nil {
			t.Fatal(err)
		}
		return up, rng
	}
	upA, rngA := mk()
	upB, rngB := mk()
	targetM := upA.Graph().M()
	for i := 0; i < 200; i++ {
		evA := randomEvent(upA.Graph(), targetM, rngA)
		evB := randomEvent(upB.Graph(), targetM, rngB)
		if !reflect.DeepEqual(evA, evB) {
			t.Fatalf("update %d: event streams diverged: %v vs %v", i, evA, evB)
		}
		repA, errA := upA.Apply([]dynamic.Event{evA})
		repB, errB := upB.Apply([]dynamic.Event{evB})
		if errA != nil || errB != nil {
			t.Fatalf("update %d: %v / %v", i, errA, errB)
		}
		if !reflect.DeepEqual(repA, repB) {
			t.Fatalf("update %d: reports diverged:\n%+v\n%+v", i, repA, repB)
		}
	}
}

// TestNewRejectsInvalidSchedule pins the constructor's validation.
func TestNewRejectsInvalidSchedule(t *testing.T) {
	g := graph.Path(4)
	as := coloring.NewAssignment(g)
	for _, a := range g.ArcsView() {
		as[a] = 1 // every conflicting pair clashes
	}
	if _, err := New(g, as); err == nil {
		t.Fatal("New accepted a conflicting schedule")
	}
}

// auditBatch draws one multi-event batch valid against g in order: fresh
// link-ups, an existing link removed and re-added, a node failed and
// re-joined to a peer set that keeps some of its old links, and a node
// moved. Each part is drawn with probability one half, at least one.
func auditBatch(g *graph.Graph, rng *rand.Rand) []dynamic.Event {
	n := g.N()
	peers := func(u int, keep []int) []int {
		out := append([]int(nil), keep...)
		for len(out) < len(keep)+1+rng.Intn(3) {
			if w := rng.Intn(n); w != u && !slices.Contains(out, w) {
				out = append(out, w)
			}
		}
		return out
	}
	var batch []dynamic.Event
	for len(batch) == 0 {
		if rng.Intn(2) == 0 {
			for k := 1 + rng.Intn(2); k > 0; {
				u, v := rng.Intn(n), rng.Intn(n)
				up := dynamic.Event{Kind: dynamic.LinkUp, U: u, V: v}
				if u != v && !g.HasEdge(u, v) && !slices.ContainsFunc(batch, func(e dynamic.Event) bool {
					return (e.U == u && e.V == v) || (e.U == v && e.V == u)
				}) {
					batch = append(batch, up)
					k--
				}
			}
		}
		if es := g.Edges(); len(es) > 0 && rng.Intn(2) == 0 {
			e := es[rng.Intn(len(es))]
			batch = append(batch,
				dynamic.Event{Kind: dynamic.LinkDown, U: e.U, V: e.V},
				dynamic.Event{Kind: dynamic.LinkUp, U: e.U, V: e.V})
		}
		if rng.Intn(2) == 0 {
			u := rng.Intn(n)
			old := g.Neighbors(u)
			batch = append(batch,
				dynamic.Event{Kind: dynamic.NodeFail, U: u},
				dynamic.Event{Kind: dynamic.NodeJoin, U: u, Peers: peers(u, old[:len(old)/2])})
		}
		if rng.Intn(2) == 0 {
			u := rng.Intn(n)
			batch = append(batch, dynamic.Event{Kind: dynamic.NodeMove, U: u, Peers: peers(u, nil)})
		}
	}
	return batch
}

// TestEndpointAuditMatchesFullAudit is the audit oracle: on the post-delta,
// pre-repair schedule of every batch, auditing only the colored arcs
// incident to the added links' endpoints finds exactly the violated pairs
// that AuditArcs over every colored arc finds, and the dirty set handed to
// the repair is the added arcs plus those pairs' members. PatchRebuild
// cannot catch an audit bug: both of its sessions share the audit.
func TestEndpointAuditMatchesFullAudit(t *testing.T) {
	up := newUpdater(t, 40, 100, 31)
	rng := rand.New(rand.NewSource(32))
	byPair := func(v []coloring.Violation) []coloring.Violation {
		slices.SortFunc(v, func(x, y coloring.Violation) int {
			if c := graph.CompareArcs(x.A, y.A); c != 0 {
				return c
			}
			return graph.CompareArcs(x.B, y.B)
		})
		return v
	}
	violated := 0
	up.stabilize = func(g *graph.Graph, slots []int32, dirty []int32) (int, float64, error) {
		var added []touch
		var colored []int32
		for v := 0; v < g.N(); v++ {
			for _, id := range g.OutArcIDsView(v) {
				if slots[id] == coloring.None {
					added = append(added, touch{id: id})
				} else {
					colored = append(colored, id)
				}
			}
		}
		want := byPair(coloring.AuditArcs(g, slots, colored))
		if got := byPair(up.endpointAudit(added)); !slices.Equal(got, want) {
			return 0, 0, fmt.Errorf("endpoint audit found %v, full audit %v", got, want)
		}
		arcOf := g.ArcsByIDView()
		wantDirty := make(map[graph.Arc]bool)
		for _, t := range added {
			wantDirty[arcOf[t.id]] = true
		}
		for _, w := range want {
			wantDirty[w.A], wantDirty[w.B] = true, true
		}
		gotDirty := make(map[graph.Arc]bool)
		for _, id := range dirty {
			gotDirty[arcOf[id]] = true
		}
		if len(gotDirty) != len(dirty) || !reflect.DeepEqual(gotDirty, wantDirty) {
			return 0, 0, fmt.Errorf("dirty set has %d arcs (%d ids), want %d", len(gotDirty), len(dirty), len(wantDirty))
		}
		violated += len(want)
		return coloring.Stabilize(g, slots, dirty)
	}
	for i := 0; i < 200; i++ {
		batch := auditBatch(up.Graph(), rng)
		if _, err := up.Apply(batch); err != nil {
			t.Fatalf("batch %d %v: %v", i, batch, err)
		}
		if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
			t.Fatalf("batch %d: %d violations after repair, first %v", i, len(viols), viols[0])
		}
	}
	if violated == 0 {
		t.Fatal("no batch violated a pair: the audit was never exercised")
	}
}

// TestFirstApplyReusesWarmCache pins session creation: New clones a graph
// whose conflict cache is warm (the schedule was built and verified on it),
// and the clone adopts those rows, so the first Apply patches them like
// any later one. It must allocate about as much as a steady-state Apply of
// the same batch, not one row allocation per arc more, and report no
// cache rebuild.
func TestFirstApplyReusesWarmCache(t *testing.T) {
	g := graph.ConnectedGNM(256, 768, rand.New(rand.NewSource(41)))
	as := coloring.Greedy(g, nil) // warms the topology and conflict caches
	up, err := New(g, as)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[len(g.Edges())/2]
	down := []dynamic.Event{{Kind: dynamic.LinkDown, U: e.U, V: e.V}}
	upEv := []dynamic.Event{{Kind: dynamic.LinkUp, U: e.U, V: e.V}}
	mallocs := func(batch []dynamic.Event) (uint64, *Report) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := up.Apply(batch)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, rep
	}
	first, rep := mallocs(down)
	if rep.CacheRebuilds != 0 || rep.CachePatches != 1 {
		t.Fatalf("first Apply: %d rebuilds, %d patches; want 0 and 1", rep.CacheRebuilds, rep.CachePatches)
	}
	var steady uint64
	for i := 0; i < 3; i++ {
		mallocs(upEv)
		steady, _ = mallocs(down)
	}
	if arcs := uint64(2 * g.M()); first > 2*steady+arcs/8 {
		t.Fatalf("first Apply allocated %d, a steady one %d: the warm rows (%d arcs) were not adopted", first, steady, arcs)
	}
	if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
		t.Fatalf("%d violations", len(viols))
	}
}
