package core

import (
	"fmt"
	"sort"

	"fdlsp/internal/coloring"
	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
)

// Randomized implements a randomized synchronous algorithm in the spirit of
// the one the paper reports having attempted (Section 5: "It is possible to
// bypass [the secondary-MIS machinery] by randomization. We have attempted
// a randomized algorithm for the FDLSP..."). It replaces all MIS
// coordination with per-iteration random ranks: an uncolored arc whose rank
// is a strict local maximum among its still-uncolored conflicting arcs
// colors itself greedily in that iteration — a Luby-style random-order
// greedy on the conflict graph. It serves as the no-coordination ablation
// for DistMIS.
//
// Protocol (6 synchronous rounds per iteration):
//
//	round 6k+0   owners draw a random rank per uncolored out-arc and flood
//	             it 2 hops (conflicting arcs' owners are within 2 hops);
//	round 6k+2   all ranks have arrived; local maxima take the smallest
//	             color feasible against the known final colors — two local
//	             maxima never conflict, so simultaneous coloring is safe —
//	             and flood the final color 3 hops;
//	round 6k+6   next iteration, finals fully propagated.
//
// The strict global maximum always wins, so every iteration makes progress
// and the protocol terminates deterministically; with random ranks the
// expected number of iterations is logarithmic in practice.
func Randomized(g *graph.Graph, seed int64) (*Result, error) {
	nodes := make([]*randNode, g.N())
	eng := sim.NewSyncEngine(g, seed, func(id int) sim.SyncNode {
		nodes[id] = newRandNode(id, g)
		return nodes[id]
	})
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("core: randomized: %w", err)
	}
	as := coloring.NewAssignment(g)
	for _, nd := range nodes {
		for _, a := range nd.owned {
			c := nd.know.Color(a)
			if c == coloring.None {
				return nil, fmt.Errorf("core: randomized left arc %v uncolored", a)
			}
			as[a] = c
		}
	}
	return &Result{
		Algorithm:      "randomized",
		Assignment:     as,
		Slots:          as.NumColors(),
		DistinctColors: as.DistinctColors(),
		Stats:          eng.Stats(),
	}, nil
}

// tentativeMsg floods one iteration's rank draw two hops.
type tentativeMsg struct {
	Arc  graph.Arc
	Rank int64
	Iter int
	TTL  int
}

type randNode struct {
	g     *graph.Graph
	know  *knowledge
	owned []graph.Arc // out-arcs, colored by this node

	iter     int
	myRank   map[graph.Arc]int64
	heard    []tentativeMsg
	seenTent map[tentKey]struct{}
}

type tentKey struct {
	arc  graph.Arc
	iter int
}

func newRandNode(id int, g *graph.Graph) *randNode {
	return &randNode{
		g:        g,
		know:     newKnowledge(id, g, 3),
		owned:    g.OutArcs(id),
		myRank:   make(map[graph.Arc]int64),
		seenTent: make(map[tentKey]struct{}),
	}
}

func (nd *randNode) uncolored() []graph.Arc {
	var out []graph.Arc
	for _, a := range nd.owned {
		if nd.know.Color(a) == coloring.None {
			out = append(out, a)
		}
	}
	return out
}

func (nd *randNode) Step(env *sim.SyncEnv, inbox []sim.Message) bool {
	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case ColorAnnounce:
			for _, out := range nd.know.observe(p) {
				env.Broadcast(out)
			}
		case tentativeMsg:
			key := tentKey{arc: p.Arc, iter: p.Iter}
			if _, dup := nd.seenTent[key]; dup {
				break
			}
			nd.seenTent[key] = struct{}{}
			if p.Iter == nd.iter {
				nd.heard = append(nd.heard, p)
			}
			if p.TTL > 1 {
				relay := p
				relay.TTL--
				env.Broadcast(relay)
			}
		default:
			panic(fmt.Sprintf("core: randomized node %d got %T", env.ID, m.Payload))
		}
	}

	switch env.Round % 6 {
	case 0:
		nd.iter = env.Round / 6
		nd.heard = nd.heard[:0]
		nd.myRank = make(map[graph.Arc]int64)
		for _, a := range nd.uncolored() {
			r := env.Rand.Int63()
			nd.myRank[a] = r
			f := tentativeMsg{Arc: a, Rank: r, Iter: nd.iter, TTL: 2}
			nd.seenTent[tentKey{arc: a, iter: nd.iter}] = struct{}{}
			nd.heard = append(nd.heard, f)
			env.Broadcast(f)
		}
	case 2:
		var won []graph.Arc
		for a, r := range nd.myRank {
			if nd.localMax(a, r) {
				won = append(won, a)
			}
		}
		sort.Slice(won, func(i, j int) bool { return less(won[i], won[j]) })
		// Local maxima are pairwise non-conflicting, so coloring them in
		// sequence against the shared knowledge is exactly the simultaneous
		// coloring of independent conflict-graph vertices.
		coloring.AssignGreedyLocal(nd.g, nd.know, won)
		for _, f := range nd.know.announceOwnTTL(won, 3) {
			env.Broadcast(f)
		}
	}
	return len(nd.uncolored()) == 0
}

// localMax reports whether arc a's rank strictly dominates every
// still-competing conflicting arc heard this iteration (ties break on the
// arc identity, so the order is total and someone always wins).
func (nd *randNode) localMax(a graph.Arc, r int64) bool {
	for _, t := range nd.heard {
		if t.Arc == a || !coloring.Conflict(nd.g, a, t.Arc) {
			continue
		}
		if t.Rank > r || (t.Rank == r && less(a, t.Arc)) {
			return false
		}
	}
	return true
}

func less(a, b graph.Arc) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}
