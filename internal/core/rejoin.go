package core

import (
	"fdlsp/internal/coloring"
	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
	"fdlsp/internal/transport"
)

// This file implements the protocol-level crash-rejoin handshake shared by
// both algorithms. A node whose outage ends receives sim.NodeRestarted from
// the engine and repairs its neighborhood in-protocol, without any
// out-of-band recomputation:
//
//  1. pull — it broadcasts resyncReq; each live neighbor answers with
//     resyncReply carrying its distance-1 color view (snapshotLocal), which
//     across all neighbors reconstructs exactly the distance-2 knowledge
//     feasible coloring needs.
//  2. push — it re-floods the colors of its own incident arcs (both those it
//     remembered across the outage and those it learns from replies) under a
//     bumped announcement generation, so 2-hop witnesses whose only flood
//     path ran through the crashed node are repaired too. Without the
//     generation bump, relays that saw the pre-crash flood would
//     deduplicate the repair away.
//
// The handshake makes a returned node indistinguishable from one that never
// crashed by the time it next competes: Result.Crashed lists only nodes
// still down at termination, and the schedule covers every arc between
// nodes live at termination.

// resyncReq asks a neighbor for its distance-1 color view; the first half of
// the rejoin handshake. It is also re-sent to a peer that comes back up
// (transport.PeerUp) after this node has itself restarted, covering the case
// where the original request was sent while the peer was still marked down.
type resyncReq struct{}

// resyncReply answers a resyncReq. Table is built fresh per reply by
// snapshotLocal — it must never alias the replier's live color table, since
// payloads outlive the Step that created them. It travels as a pointer so
// the slice header is not re-boxed per send.
type resyncReply struct {
	Table []arcColor
}

// RejoinStats accounts for the protocol-level crash-recovery work of one
// run.
type RejoinStats struct {
	// Returned lists the nodes that completed at least one crash window and
	// re-entered the protocol, ascending. Disjoint from Result.Crashed,
	// which keeps only nodes still down at termination.
	Returned []int
	// ResyncMsgs counts the protocol messages originated by rejoin
	// handshakes: resync requests, replies, and repair re-announcements
	// (relays of repair floods are indistinguishable from normal relays and
	// are not counted).
	ResyncMsgs int64
	// Rebased counts driver re-launches: recovery epochs beyond the first,
	// each started on a virtual clock re-based past the previous epoch
	// (asynchronous DFS driver only; the synchronous engine always runs
	// every window to its close inside a single launch per phase).
	Rebased int
}

// rejoinStep handles the rejoin-handshake payloads every synchronous phase
// node must understand regardless of which sub-protocol the phase runs. It
// reports whether the message was consumed; callers layer phase-specific
// reactions (abstaining from a competition, cancelling a pending coloring)
// on top for the NodeRestarted case.
func (st *nodeState) rejoinStep(env *transport.SyncEnv, m sim.Message) bool {
	switch p := m.Payload.(type) {
	case sim.NodeRestarted:
		st.resyncMsgs += int64(len(env.Neighbors))
		env.Broadcast(resyncReq{})
		for _, f := range st.know.reannounce(p.Restarts) {
			st.resyncMsgs += int64(len(env.Neighbors))
			env.Broadcast(st.anns.put(f))
		}
		return true
	case resyncReq:
		st.resyncMsgs++
		env.Send(m.From, &resyncReply{Table: st.know.snapshotLocal()})
		return true
	case *resyncReply:
		for _, f := range st.know.mergeIncident(p.Table) {
			st.resyncMsgs += int64(len(env.Neighbors))
			env.Broadcast(st.anns.put(f))
		}
		return true
	case *ColorAnnounce:
		// Repair floods can arrive in any phase, not just coloring waves:
		// a rejoin during an MIS phase re-announces colors immediately.
		for _, out := range st.know.observe(*p) {
			env.Broadcast(st.anns.put(out))
		}
		return true
	case transport.PeerUp:
		// A peer this endpoint had given up on is reachable again. If this
		// node has itself restarted, its resyncReq to that peer may have
		// been suppressed while the peer was marked down — ask again now.
		if st.know.gen > 0 {
			st.resyncMsgs++
			env.Send(p.Peer, resyncReq{})
		}
		return true
	}
	return false
}

// mergeIncident folds a resyncReply table into this node's knowledge and
// returns fresh generation-tagged floods for incident arcs whose colors the
// node just learned — the arcs were colored by a neighbor during this node's
// outage, so the push half of the handshake must cover them too. The table
// arrives sorted by arc (snapshotLocal's contract), so the floods come out
// in deterministic order without re-sorting; the seen set deduplicates
// across multiple replies. The result shares the knowledge's scratch buffer.
func (k *knowledge) mergeIncident(table []arcColor) []ColorAnnounce {
	out := k.obuf[:0]
	for _, e := range table {
		if e.Color == coloring.None {
			continue
		}
		i := k.index(e.Arc)
		fresh := k.incident(e.Arc) && k.slot[i] == coloring.None
		k.recordAt(i, e.Color)
		if !fresh || !k.markSeen(i, e.Arc, k.id, k.gen) {
			continue
		}
		out = append(out, ColorAnnounce{Arc: e.Arc, Color: int(k.slot[i]), Origin: k.id, TTL: 2, Gen: k.gen})
	}
	k.obuf = out[:0]
	return out
}

// enforceIndependence drops vacuous secondary-MIS winners before they color:
// under message loss a severed competition can elect two winners within the
// competition radius (each one's floods died before reaching the other), and
// letting both color concurrently could produce conflicting assignments. The
// driver — which already owns the global view to detect phase completion —
// keeps the lowest-id winner of every violating pair; dropped winners stay
// in the candidate set and recompete in a later iteration. Returns the
// number of winners dropped (always zero in correct fault-free executions).
func enforceIndependence(g *graph.Graph, radius int, selected []bool) int {
	dropped := 0
	dist := make(map[int]int)
	var queue []int
	for v := 0; v < len(selected); v++ {
		if !selected[v] {
			continue
		}
		// BFS from v to the competition radius; any still-selected node met
		// on the way has a smaller id (larger ids are not decided yet, and
		// dropped ones are cleared), so v is the loser of the pair.
		for q := range dist {
			delete(dist, q)
		}
		queue = append(queue[:0], v)
		dist[v] = 0
		conflict := false
		for len(queue) > 0 && !conflict {
			u := queue[0]
			queue = queue[1:]
			if dist[u] == radius {
				continue
			}
			for _, w := range g.NeighborsView(u) {
				if _, ok := dist[w]; ok {
					continue
				}
				dist[w] = dist[u] + 1
				if w < v && selected[w] {
					conflict = true
					break
				}
				queue = append(queue, w)
			}
		}
		if conflict {
			selected[v] = false
			dropped++
		}
	}
	return dropped
}

// standardSetColored reports whether every arc of v's standard set — the
// arcs a win obliges it to color: all incident arcs in the GBG variant, out
// arcs in the general variant — between live endpoints carries a color in
// v's own knowledge. The DistMIS driver only retires an h-member once this
// holds; a node whose coloring was cut short by an outage (its own or a
// peer's) stays in the candidate set and recompetes, so no arc is ever
// permanently excluded by a transient crash.
func standardSetColored(g *graph.Graph, st *nodeState, variant Variant, dead []bool) bool {
	arcs := g.IncidentArcsView(st.id)
	if variant == General {
		arcs = g.OutArcsView(st.id)
	}
	for _, a := range arcs {
		if arcAlive(a, dead) && st.know.Color(a) == coloring.None {
			return false
		}
	}
	return true
}
