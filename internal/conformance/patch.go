package conformance

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
	"fdlsp/internal/incr"
)

// This file is the patch-vs-rebuild conformance oracle for the incremental
// distance-2 conflict cache: the same rescheduling session is driven twice
// over an arbitrary event stream — once with topology-cache patching on (the
// default: mutations drop only the conflict rows in the 2-hop neighborhood
// of the flipped edges, each rebuilt when next read) and once with patching
// disabled (every mutation discards the cache and the next read rebuilds
// every conflict row from scratch). The two
// sessions must be indistinguishable after every batch: identical reports,
// identical schedules and frame lengths, identical topologies, and
// byte-identical conflict rows for every live arc. Any divergence is a bug
// in the patch path, never the rebuild path — the rebuild is definitionally
// correct.

// PatchRebuildStream drives both sessions through the given batches and
// returns the first divergence (nil means conformant). Batches may contain
// invalid events: both sessions must then reject with the same error and
// roll back to the same state, which pins the repair/validation rollback
// path to the same oracle.
func PatchRebuildStream(g *graph.Graph, batches [][]dynamic.Event) error {
	as := coloring.Greedy(g, nil)
	patched, err := incr.New(g, as)
	if err != nil {
		return err
	}
	rebuild, err := incr.New(g, as)
	if err != nil {
		return err
	}
	rebuild.Graph().SetTopoPatching(false)

	for i, batch := range batches {
		repP, errP := patched.Apply(batch)
		repR, errR := rebuild.Apply(batch)
		if (errP == nil) != (errR == nil) {
			return fmt.Errorf("batch %d: patched err = %v, rebuild err = %v", i, errP, errR)
		}
		if errP != nil {
			if errP.Error() != errR.Error() {
				return fmt.Errorf("batch %d: error text diverges: %q vs %q", i, errP, errR)
			}
		} else if d := diffReports(repP, repR); d != "" {
			return fmt.Errorf("batch %d: report field %s diverges (%+v vs %+v)", i, d, repP, repR)
		}
		if d := diffSessions(patched, rebuild); d != "" {
			return fmt.Errorf("batch %d: %s", i, d)
		}
	}
	return nil
}

// diffReports compares two batch reports, ignoring the cache-maintenance
// counters — those measure how each mode paid for its rows (patches vs
// rebuilds) and differ by construction.
func diffReports(a, b *incr.Report) string {
	x, y := *a, *b
	x.CachePatches, x.CachePatchedArcs, x.CacheRebuilds = 0, 0, 0
	y.CachePatches, y.CachePatchedArcs, y.CacheRebuilds = 0, 0, 0
	if !reflect.DeepEqual(x, y) {
		switch {
		case !reflect.DeepEqual(x.Recolored, y.Recolored):
			return "Recolored"
		case !reflect.DeepEqual(x.Dropped, y.Dropped):
			return "Dropped"
		case x.FrameLength != y.FrameLength:
			return "FrameLength"
		case x.Rounds != y.Rounds:
			return "Rounds"
		case x.MinUsable != y.MinUsable:
			return "MinUsable"
		case x.DirtyArcs != y.DirtyArcs:
			return "DirtyArcs"
		default:
			return "(other)"
		}
	}
	return ""
}

// diffSessions compares the full observable state of the two sessions,
// including a byte-level sweep of every conflict row.
func diffSessions(p, r *incr.Updater) string {
	if !p.Graph().Equal(r.Graph()) {
		return "topologies diverge"
	}
	if !reflect.DeepEqual(p.Assignment(), r.Assignment()) {
		return "schedules diverge"
	}
	if p.Slots() != r.Slots() {
		return fmt.Sprintf("frame lengths diverge (%d vs %d)", p.Slots(), r.Slots())
	}
	if p.Updates() != r.Updates() {
		return fmt.Sprintf("update counters diverge (%d vs %d)", p.Updates(), r.Updates())
	}
	arcsP, arcsR := p.Graph().ArcsView(), r.Graph().ArcsView()
	if !reflect.DeepEqual(arcsP, arcsR) {
		return "arc lists diverge"
	}
	for _, a := range arcsP {
		cp := coloring.ConflictingArcs(p.Graph(), a)
		cr := coloring.ConflictingArcs(r.Graph(), a)
		if !reflect.DeepEqual(cp, cr) {
			return fmt.Sprintf("conflict row of %v diverges\n patched: %v\n rebuilt: %v", a, cp, cr)
		}
	}
	return ""
}

// RandomEventBatches generates a deterministic stream of event batches for
// g: link flips, node failures, joins and moves, mostly valid against a
// shadow topology, with a fraction of deliberately invalid batches (a
// link-up on an existing edge appended at the end) so both sessions'
// reject-and-rollback paths are exercised too.
func RandomEventBatches(g *graph.Graph, batches int, seed int64) [][]dynamic.Event {
	rng := rand.New(rand.NewSource(seed))
	shadow := g.Clone()
	out := make([][]dynamic.Event, 0, batches)
	for len(out) < batches {
		k := 1 + rng.Intn(3)
		staged := shadow.Clone()
		batch := make([]dynamic.Event, 0, k+1)
		for len(batch) < k {
			ev, ok := randomValidEvent(staged, rng)
			if !ok {
				break
			}
			applyToShadow(staged, ev)
			batch = append(batch, ev)
		}
		if len(batch) == 0 {
			continue
		}
		if rng.Intn(100) < 15 {
			// Corrupt: duplicate an existing edge as a link-up. The whole
			// batch must be rejected, so the shadow keeps its old state.
			if es := staged.Edges(); len(es) > 0 {
				e := es[rng.Intn(len(es))]
				batch = append(batch, dynamic.Event{Kind: dynamic.LinkUp, U: e.U, V: e.V})
				out = append(out, batch)
				continue
			}
		}
		shadow = staged
		out = append(out, batch)
	}
	return out
}

// randomValidEvent draws one event valid against the shadow topology.
func randomValidEvent(g *graph.Graph, rng *rand.Rand) (dynamic.Event, bool) {
	n := g.N()
	if n < 2 {
		return dynamic.Event{}, false
	}
	for try := 0; try < 64; try++ {
		switch rng.Intn(6) {
		case 0, 1: // link up
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				return dynamic.Event{Kind: dynamic.LinkUp, U: u, V: v}, true
			}
		case 2, 3: // link down
			if g.M() > 0 {
				es := g.Edges()
				e := es[rng.Intn(len(es))]
				return dynamic.Event{Kind: dynamic.LinkDown, U: e.U, V: e.V}, true
			}
		case 4: // node fail (valid even when isolated)
			return dynamic.Event{Kind: dynamic.NodeFail, U: rng.Intn(n)}, true
		default: // node join or move with a small random peer set
			u := rng.Intn(n)
			peers := make([]int, 0, 3)
			for len(peers) < 1+rng.Intn(3) {
				w := rng.Intn(n)
				if w == u {
					continue
				}
				dup := false
				for _, p := range peers {
					if p == w {
						dup = true
					}
				}
				if !dup {
					peers = append(peers, w)
				}
			}
			if g.Degree(u) == 0 {
				// A join must not re-add existing edges; with degree 0 any
				// peer set is fresh.
				return dynamic.Event{Kind: dynamic.NodeJoin, U: u, Peers: peers}, true
			}
			return dynamic.Event{Kind: dynamic.NodeMove, U: u, Peers: peers}, true
		}
	}
	return dynamic.Event{}, false
}

// applyToShadow mirrors incr's event semantics on the generator's shadow
// topology.
func applyToShadow(g *graph.Graph, ev dynamic.Event) {
	switch ev.Kind {
	case dynamic.LinkUp:
		g.AddEdge(ev.U, ev.V)
	case dynamic.LinkDown:
		g.RemoveEdge(ev.U, ev.V)
	case dynamic.NodeFail:
		for _, w := range g.Neighbors(ev.U) {
			g.RemoveEdge(ev.U, w)
		}
	case dynamic.NodeJoin:
		for _, w := range ev.Peers {
			g.AddEdge(ev.U, w)
		}
	case dynamic.NodeMove:
		want := make(map[int]bool, len(ev.Peers))
		for _, w := range ev.Peers {
			want[w] = true
		}
		for _, w := range g.Neighbors(ev.U) {
			if !want[w] {
				g.RemoveEdge(ev.U, w)
			}
		}
		for _, w := range ev.Peers {
			if !g.HasEdge(ev.U, w) {
				g.AddEdge(ev.U, w)
			}
		}
	}
}

// PatchRebuild runs the oracle over the differential graph families and
// seeded random event streams, returning every divergence found.
func PatchRebuild(seeds []int64) []Failure {
	if len(seeds) == 0 {
		seeds = []int64{1, 2}
	}
	graphs := DifferentialGraphs()
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	var fails []Failure
	for _, name := range names {
		g := graphs[name]
		if g.N() < 2 {
			continue
		}
		for _, seed := range seeds {
			batches := RandomEventBatches(g, 40, seed)
			if err := PatchRebuildStream(g, batches); err != nil {
				fails = append(fails, Failure{
					Graph: name, Seed: seed, Invariant: "patch-rebuild", Detail: err.Error(),
				})
			}
		}
	}
	return fails
}
