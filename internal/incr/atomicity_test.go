package incr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
)

// snapshot captures the updater state a failed batch must restore exactly.
type updaterSnapshot struct {
	g       *graph.Graph
	as      coloring.Assignment
	updates int64
	slots   int
}

func snapshotUpdater(up *Updater) updaterSnapshot {
	return updaterSnapshot{
		g:       up.Graph().Clone(),
		as:      up.Assignment().Clone(),
		updates: up.Updates(),
		slots:   up.Slots(),
	}
}

func (s updaterSnapshot) diff(up *Updater) error {
	if !s.g.Equal(up.Graph()) {
		return errors.New("topology differs from snapshot")
	}
	if !reflect.DeepEqual(s.as, up.Assignment()) {
		return fmt.Errorf("schedule differs from snapshot: %v vs %v", up.Assignment(), s.as)
	}
	if up.Updates() != s.updates {
		return fmt.Errorf("updates counter %d, snapshot %d", up.Updates(), s.updates)
	}
	if up.Slots() != s.slots {
		return fmt.Errorf("frame %d, snapshot %d", up.Slots(), s.slots)
	}
	return nil
}

// TestRepairFailureRollsBack forces coloring.Stabilize to fail and asserts
// the batch is atomic anyway: the topology, the schedule (byte-diffed
// against a snapshot), the frame length, and the updates counter are all
// exactly pre-batch, and the very same batch succeeds on retry once the
// injected failure is removed — the session survives a repair failure.
func TestRepairFailureRollsBack(t *testing.T) {
	up := newUpdater(t, 20, 45, 31)
	targetM := up.Graph().M()
	rng := rand.New(rand.NewSource(32))

	injected := errors.New("injected repair failure")
	for i := 0; i < 25; i++ {
		batch := []dynamic.Event{
			randomEvent(up.Graph(), targetM, rng),
		}
		// A second event that stays valid relative to the first: flip an
		// edge untouched by it, found by probing a clone.
		probe, err := New(up.Graph(), up.Assignment())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := probe.Apply(batch); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, randomEvent(probe.Graph(), targetM, rng))

		before := snapshotUpdater(up)

		// Fail the repair after it has already recolored: run the real rule
		// to completion, then report failure — the worst case for rollback.
		up.stabilize = func(g *graph.Graph, slots []int32, dirty []int32) (int, float64, error) {
			rounds, minU, err := coloring.Stabilize(g, slots, dirty)
			if err != nil {
				return rounds, minU, err
			}
			return rounds, minU, injected
		}
		if _, err := up.Apply(batch); !errors.Is(err, injected) {
			t.Fatalf("iteration %d: Apply error = %v, want injected failure", i, err)
		}
		if err := before.diff(up); err != nil {
			t.Fatalf("iteration %d: state not rolled back after repair failure: %v", i, err)
		}

		// Retry the identical batch with the real rule: must succeed and
		// leave a valid schedule.
		up.stabilize = nil
		if _, err := up.Apply(batch); err != nil {
			t.Fatalf("iteration %d: retry after rollback failed: %v", i, err)
		}
		if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
			t.Fatalf("iteration %d: retry left %d violations", i, len(viols))
		}
	}
}

// TestUpdatesCountsOnlySuccesses: failed batches (validation or repair) do
// not advance the batch counter.
func TestUpdatesCountsOnlySuccesses(t *testing.T) {
	up := newUpdater(t, 10, 14, 33)
	if up.Updates() != 0 {
		t.Fatalf("fresh updater has %d updates", up.Updates())
	}
	// Validation failure: second event references a missing edge.
	_, err := up.Apply([]dynamic.Event{
		{Kind: dynamic.LinkDown, U: 0, V: up.Graph().Neighbors(0)[0]},
		{Kind: dynamic.LinkDown, U: 0, V: up.Graph().Neighbors(0)[0]},
	})
	if !errors.Is(err, ErrBadDelta) {
		t.Fatalf("want ErrBadDelta, got %v", err)
	}
	if up.Updates() != 0 {
		t.Fatalf("validation failure advanced updates to %d", up.Updates())
	}
	// Repair failure.
	boom := errors.New("boom")
	up.stabilize = func(*graph.Graph, []int32, []int32) (int, float64, error) {
		return 0, 1, boom
	}
	u, v := pickAbsentEdge(up.Graph())
	if _, err := up.Apply([]dynamic.Event{{Kind: dynamic.LinkUp, U: u, V: v}}); !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	if up.Updates() != 0 {
		t.Fatalf("repair failure advanced updates to %d", up.Updates())
	}
	up.stabilize = nil
	if _, err := up.Apply([]dynamic.Event{{Kind: dynamic.LinkUp, U: u, V: v}}); err != nil {
		t.Fatal(err)
	}
	if up.Updates() != 1 {
		t.Fatalf("successful batch counted as %d updates", up.Updates())
	}
}

func pickAbsentEdge(g *graph.Graph) (int, int) {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	panic("complete graph")
}

// TestRemoveThenReaddSameArc: a batch that drops and re-adds the same edge
// must behave like a recoloring of that edge — the topology is unchanged,
// the schedule valid, and the arcs (possibly) recolored, never dropped.
func TestRemoveThenReaddSameArc(t *testing.T) {
	up := newUpdater(t, 16, 30, 34)
	for i := 0; i < 50; i++ {
		e := up.Graph().Edges()[i%up.Graph().M()]
		gBefore := up.Graph().Clone()
		rep, err := up.Apply([]dynamic.Event{
			{Kind: dynamic.LinkDown, U: e.U, V: e.V},
			{Kind: dynamic.LinkUp, U: e.U, V: e.V},
		})
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
		if !gBefore.Equal(up.Graph()) {
			t.Fatalf("flip %d: remove+readd changed the topology", i)
		}
		if len(rep.Dropped) != 0 {
			t.Fatalf("flip %d: remove+readd reported drops: %v", i, rep.Dropped)
		}
		for _, rc := range rep.Recolored {
			if up.Assignment()[graph.Arc{From: rc.From, To: rc.To}] != rc.Slot {
				t.Fatalf("flip %d: recolor entry %v disagrees with schedule", i, rc)
			}
		}
		if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
			t.Fatalf("flip %d: %d violations", i, len(viols))
		}
	}
}

// TestNodeMoveFailOverlappingDirtySets: batches pairing a NodeMove with a
// NodeFail of an adjacent node exercise overlapping dirty regions — the
// mover's new links and the failer's dropped links share 2-hop
// neighborhoods. The schedule must stay valid and every drop accounted.
func TestNodeMoveFailOverlappingDirtySets(t *testing.T) {
	up := newUpdater(t, 24, 60, 35)
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 60; i++ {
		g := up.Graph()
		// Mover: relocate next to a random node's neighborhood. Failer: a
		// current neighbor of the mover, so the dirty sets overlap.
		mover := rng.Intn(g.N())
		nbrs := g.Neighbors(mover)
		if len(nbrs) == 0 {
			continue
		}
		failer := nbrs[rng.Intn(len(nbrs))]
		anchor := rng.Intn(g.N())
		peers := []int{}
		for _, w := range g.Neighbors(anchor) {
			if w != mover && w != failer {
				peers = append(peers, w)
			}
		}
		if anchor != mover && anchor != failer {
			peers = append(peers, anchor)
		}
		if len(peers) == 0 {
			continue
		}
		before := up.Assignment().Clone()
		rep, err := up.Apply([]dynamic.Event{
			{Kind: dynamic.NodeMove, U: mover, Peers: peers},
			{Kind: dynamic.NodeFail, U: failer},
		})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
			t.Fatalf("batch %d: %d violations, first %v", i, len(viols), viols[0])
		}
		if up.Graph().Degree(failer) != 0 {
			t.Fatalf("batch %d: failed node %d still has %d links", i, failer, up.Graph().Degree(failer))
		}
		// Every dropped entry names the slot the arc actually held.
		for _, d := range rep.Dropped {
			a := graph.Arc{From: d.From, To: d.To}
			if before[a] != d.Slot {
				t.Fatalf("batch %d: drop %v reported slot %d, had %d", i, a, d.Slot, before[a])
			}
			if _, live := up.Assignment()[a]; live {
				t.Fatalf("batch %d: dropped arc %v still colored", i, a)
			}
		}
	}
}

// TestFrameTracksNumColors pins the O(1) frame accounting to the full-scan
// definition across a long mutation stream, including frame shrinkage when
// high slots retire.
func TestFrameTracksNumColors(t *testing.T) {
	up := newUpdater(t, 18, 40, 37)
	targetM := up.Graph().M()
	rng := rand.New(rand.NewSource(38))
	if up.Slots() != up.Assignment().NumColors() {
		t.Fatalf("fresh updater frame %d, scan %d", up.Slots(), up.Assignment().NumColors())
	}
	for i := 0; i < 300; i++ {
		if _, err := up.Apply([]dynamic.Event{randomEvent(up.Graph(), targetM, rng)}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if got, want := up.Slots(), up.Assignment().NumColors(); got != want {
			t.Fatalf("update %d: tracked frame %d, full scan %d", i, got, want)
		}
	}
}

// TestApplyReportsCachePatches: steady-state batches are served by conflict
// cache patches, not rebuilds.
func TestApplyReportsCachePatches(t *testing.T) {
	up := newUpdater(t, 20, 45, 39)
	targetM := up.Graph().M()
	rng := rand.New(rand.NewSource(40))
	// Warm-up batch may pay the initial build.
	if _, err := up.Apply([]dynamic.Event{randomEvent(up.Graph(), targetM, rng)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		rep, err := up.Apply([]dynamic.Event{randomEvent(up.Graph(), targetM, rng)})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if rep.CacheRebuilds != 0 {
			t.Fatalf("update %d: steady-state batch paid %d cache rebuilds", i, rep.CacheRebuilds)
		}
		if rep.CachePatches == 0 || rep.CachePatchedArcs == 0 {
			t.Fatalf("update %d: no cache patch recorded: %+v", i, rep)
		}
	}
}

// adversarial returns a ConnectedGNM topology with an invalid schedule: every
// arc uncolored (jam false) or every arc in slot 1 (jam true).
func adversarial(n, m int, seed int64, jam bool) (*graph.Graph, coloring.Assignment) {
	g := graph.ConnectedGNM(n, m, rand.New(rand.NewSource(seed)))
	as := coloring.NewAssignment(g)
	if jam {
		for _, a := range g.ArcsView() {
			as[a] = 1
		}
	}
	return g, as
}

// TestNewHealingRepairsAdversarialStart: a healing updater's first batch
// dirties every arc of the post-delta topology and leaves a valid schedule;
// later batches are back to the local dirty set.
func TestNewHealingRepairsAdversarialStart(t *testing.T) {
	for _, jam := range []bool{false, true} {
		g, as := adversarial(60, 80, 41, jam)
		up := NewHealing(g, as)
		u, v := pickAbsentEdge(up.Graph())
		rep, err := up.Apply([]dynamic.Event{{Kind: dynamic.LinkUp, U: u, V: v}})
		if err != nil {
			t.Fatalf("jam=%v: %v", jam, err)
		}
		if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
			t.Fatalf("jam=%v: first batch left %d violations", jam, len(viols))
		}
		if all := len(up.Graph().ArcsView()); rep.DirtyArcs != all {
			t.Errorf("jam=%v: first batch dirtied %d arcs, want all %d", jam, rep.DirtyArcs, all)
		}
		if rep.MinUsable >= 1 || rep.Rounds == 0 {
			t.Errorf("jam=%v: adversarial start repaired for free: %+v", jam, rep)
		}
		if up.Slots() != up.Assignment().NumColors() {
			t.Errorf("jam=%v: tracked frame %d, full scan %d", jam, up.Slots(), up.Assignment().NumColors())
		}
		rep, err = up.Apply([]dynamic.Event{{Kind: dynamic.LinkDown, U: u, V: v}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DirtyArcs != 0 || rep.Rounds != 0 || len(rep.Recolored) != 0 {
			t.Errorf("jam=%v: healed updater still dirties everything: %+v", jam, rep)
		}
	}
}

// TestNewHealingFailedFirstApplyRollsBack: a first batch that fails
// validation or repair restores the adversarial state exactly and keeps the
// heal pending, so the retry still repairs every arc.
func TestNewHealingFailedFirstApplyRollsBack(t *testing.T) {
	g, as := adversarial(60, 80, 42, true)
	up := NewHealing(g, as)
	before := snapshotUpdater(up)
	u, v := pickAbsentEdge(up.Graph())
	batch := []dynamic.Event{{Kind: dynamic.LinkUp, U: u, V: v}}

	if _, err := up.Apply(append(batch, dynamic.Event{Kind: dynamic.LinkUp, U: 2, V: 2})); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("want ErrBadDelta, got %v", err)
	}
	if err := before.diff(up); err != nil {
		t.Fatalf("validation failure: %v", err)
	}

	injected := errors.New("injected repair failure")
	up.stabilize = func(g *graph.Graph, slots []int32, dirty []int32) (int, float64, error) {
		if _, _, err := coloring.Stabilize(g, slots, dirty); err != nil {
			return 0, 1, err
		}
		return 0, 1, injected
	}
	if _, err := up.Apply(batch); !errors.Is(err, injected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	if err := before.diff(up); err != nil {
		t.Fatalf("repair failure: %v", err)
	}

	up.stabilize = nil
	rep, err := up.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if all := len(up.Graph().ArcsView()); rep.DirtyArcs != all {
		t.Errorf("retry dirtied %d arcs, want all %d", rep.DirtyArcs, all)
	}
	if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
		t.Fatalf("retry left %d violations", len(viols))
	}
}
