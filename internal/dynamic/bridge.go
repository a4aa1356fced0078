package dynamic

import (
	"sort"

	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
)

// CrashEvents translates a fault plan's crash schedule into the topology
// events the maintenance path understands: each crash becomes a NodeFail
// (the dead sensor's links drop), and each restart becomes a NodeJoin
// re-attaching the sensor to those of its g-neighbors that are alive at
// that moment. Events are ordered by virtual time (ties: node id), so
// replaying them through incr.Updater.Apply subjects a live schedule to
// exactly the churn the simulator's fault layer injects — the bridge between
// the two failure models (runtime faults in internal/sim, topology repair in
// internal/incr).
//
// Only *net* state transitions are emitted. A node whose marks cancel out
// inside one virtual-time tick never reaches the maintenance path: a
// zero-length outage (RestartAt == At — the node crashed and rejoined inside
// one tick, never observed down by the engines) produces no events, and
// back-to-back windows (one outage's restart coinciding with the next
// outage's crash) produce a single NodeFail at the first crash and a single
// NodeJoin at the final restart. Emitting the raw marks instead would
// double-apply the repair — or worse, leave the maintained schedule claiming
// a node is up while the engine still holds it down.
//
// rejoined lists nodes whose bounded outage the protocol itself already
// repaired (core.Result.Rejoin.Returned): their crash/restart pair is
// omitted entirely — the rejoin handshake restored their links and colors
// in-band, so charging the maintenance path a NodeFail/NodeJoin for them
// would double-count the repair. Such nodes also never count as down when
// computing other restarts' surviving peer sets, since their links never
// left the maintained schedule. Crash-stops are unaffected by rejoined
// (a node that never came back cannot have been reintegrated).
func CrashEvents(g *graph.Graph, plan *sim.FaultPlan, rejoined []int) []Event {
	if plan == nil {
		return nil
	}
	inband := make(map[int]bool, len(rejoined))
	for _, v := range rejoined {
		inband[v] = true
	}
	// Candidate transition times per node: every window edge. The node's
	// engine-visible state at each candidate time comes from the plan itself
	// (CrashedAt), so coincident marks — zero-length windows, a restart
	// meeting the next crash — collapse to their net effect instead of being
	// replayed edge by edge.
	type mark struct {
		at   int64
		node int
	}
	var marks []mark
	for _, c := range plan.Crashes {
		bounded := c.RestartAt > 0 && c.RestartAt >= c.At
		if inband[c.Node] && bounded {
			continue
		}
		marks = append(marks, mark{at: c.At, node: c.Node})
		if bounded {
			marks = append(marks, mark{at: c.RestartAt, node: c.Node})
		}
	}
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].at != marks[j].at {
			return marks[i].at < marks[j].at
		}
		return marks[i].node < marks[j].node
	})

	down := make(map[int]bool)
	var out []Event
	var prev mark
	for i, m := range marks {
		if i > 0 && m == prev {
			continue // coincident edges of adjacent windows: one evaluation
		}
		prev = m
		// An inband node's bounded windows are skipped above, so CrashedAt
		// may disagree with the maintained schedule for them; their only
		// surviving marks are crash-stops, for which it agrees.
		now := plan.CrashedAt(m.node, m.at)
		if down[m.node] == now {
			continue
		}
		down[m.node] = now
		if now {
			out = append(out, Event{Kind: NodeFail, U: m.node})
			continue
		}
		var peers []int
		for _, u := range g.Neighbors(m.node) {
			if !down[u] {
				peers = append(peers, u)
			}
		}
		out = append(out, Event{Kind: NodeJoin, U: m.node, Peers: peers})
	}
	return out
}

// MoveEvents diffs two neighborhood snapshots into the NodeMove events that
// carry a mobility step into the maintenance path. prev and next report a
// node's neighbor set before and after the step (internal/geom mobility
// traces provide exactly this as a pure function of positions); live masks
// out nodes currently held down by the fault layer — a moving crashed node
// emits no event (its links are already out of the schedule; the rejoin at
// its restart reattaches it wherever it has moved to by then), and down
// nodes are excluded from every emitted peer set. A NodeMove is emitted only
// for nodes whose live neighbor set actually changed; an edge whose other
// endpoint moved away is repaired by that endpoint's own event, so replaying
// the result through incr.Updater.Apply performs each link change exactly
// once.
func MoveEvents(n int, prev, next func(v int) []int, live []bool) []Event {
	alive := func(v int) bool { return live == nil || live[v] }
	liveSet := func(f func(int) []int, v int) []int {
		var out []int
		for _, u := range f(v) {
			if alive(u) {
				out = append(out, u)
			}
		}
		sort.Ints(out)
		return out
	}
	var out []Event
	for v := 0; v < n; v++ {
		if !alive(v) {
			continue
		}
		before, after := liveSet(prev, v), liveSet(next, v)
		if len(before) == len(after) {
			same := true
			for i := range before {
				if before[i] != after[i] {
					same = false
					break
				}
			}
			if same {
				continue
			}
		}
		out = append(out, Event{Kind: NodeMove, U: v, Peers: after})
	}
	return out
}
