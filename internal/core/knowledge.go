// Package core implements the paper's two distributed FDLSP algorithms on
// top of the sim engines: the synchronous maximal-independent-set based
// algorithm DistMIS (Algorithm 1, Sections 5–6) and the asynchronous
// DFS-based token-passing algorithm (Algorithm 2, Section 7). Both produce
// feasible distance-2 edge colorings of the bi-directed input graph; the
// number of colors is the TDMA frame length.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"fdlsp/internal/coloring"
	"fdlsp/internal/graph"
)

// ColorAnnounce propagates the color of one arc. Whenever a node learns the
// color of an arc incident to itself it originates a TTL-2 flood, so the
// color of arc (x,y) becomes known everywhere within 2 hops of x and of y —
// exactly the distance-2 knowledge a node needs to color its own arcs
// feasibly (every arc conflicting with an arc at node u has an endpoint
// within 2 hops of u).
type ColorAnnounce struct {
	Arc    graph.Arc
	Color  int
	Origin int
	TTL    int
	// Gen is the origin's announcement generation. It is 0 for a node's
	// lifetime unless the node crashes and rejoins: the rejoin handshake
	// re-floods already-colored incident arcs under a bumped generation so
	// relays that saw (and deduplicated) the pre-crash flood still forward
	// the repair copy to neighborhoods the original flood never reached.
	Gen int
}

// localView indexes, for every node v of one topology, the arcs v can ever
// learn a color for: those with an endpoint within radius hops of v. Floods
// travel at most radius hops from an endpoint of their arc, and a
// neighbor's snapshot covers arcs touching that neighbor's closed
// neighborhood, so nothing outside the view ever reaches v. keys[v] holds
// v's arcs packed by arcKey, ascending; near[v] marks the ones touching
// N₁[v] (v or a neighbor), the part of v's table snapshotLocal ships. One
// view is built per topology and radius and shared read-only by every node
// of every run on that graph.
type localView struct {
	keys [][]uint64
	near [][]bool
}

type localViewKey struct{ radius int }

// arcKey packs an arc into one word whose integer order is the (From, To)
// order of arcs.
func arcKey(a graph.Arc) uint64 { return uint64(uint32(a.From))<<32 | uint64(uint32(a.To)) }

func keyArc(k uint64) graph.Arc { return graph.Arc{From: int(k >> 32), To: int(uint32(k))} }

// localViewOf returns g's view for the given flood radius, built once per
// topology.
func localViewOf(g *graph.Graph, radius int) *localView {
	return g.Aux(localViewKey{radius}, func() any { return buildLocalView(g, radius) }).(*localView)
}

func buildLocalView(g *graph.Graph, radius int) *localView {
	n := g.N()
	lv := &localView{keys: make([][]uint64, n), near: make([][]bool, n)}
	// mark[x] == v+1 when x is within radius+1 hops of v, at hop distance
	// dist[x]; reach lists those nodes. An arc of the view has an endpoint
	// within radius hops, so its tail is within radius+1.
	mark := make([]int32, n)
	dist := make([]int32, n)
	var reach []int
	var keys []uint64
	var near []bool
	for v := 0; v < n; v++ {
		stamp := int32(v + 1)
		mark[v], dist[v] = stamp, 0
		reach = append(reach[:0], v)
		for lo, d := 0, int32(1); d <= int32(radius)+1; d++ {
			hi := len(reach)
			for _, x := range reach[lo:hi] {
				for _, y := range g.NeighborsView(x) {
					if mark[y] != stamp {
						mark[y], dist[y] = stamp, d
						reach = append(reach, y)
					}
				}
			}
			lo = hi
		}
		slices.Sort(reach)
		within := func(x int, r int32) bool { return mark[x] == stamp && dist[x] <= r }
		keys, near = keys[:0], near[:0]
		for _, x := range reach {
			for _, y := range g.NeighborsView(x) {
				if within(x, int32(radius)) || within(y, int32(radius)) {
					keys = append(keys, arcKey(graph.Arc{From: x, To: y}))
					near = append(near, within(x, 1) || within(y, 1))
				}
			}
		}
		lv.keys[v], lv.near[v] = slices.Clone(keys), slices.Clone(near)
	}
	return lv
}

// knowledge is one node's view of arc colors, plus the flood bookkeeping
// that maintains it. It is owned by a single node (goroutine) at a time.
//
// Every per-arc field is a dense array indexed by the arc's position in
// keys, the node's entries of the shared localView, found by one binary
// search. An arc outside the view cannot reach a correct node, so looking
// one up panics.
type knowledge struct {
	id   int
	g    *graph.Graph
	keys []uint64 // this node's localView entries (shared, read-only)
	near []bool   // entry touches N₁[id] (shared, read-only)

	slot []int32 // color per entry; coloring.None when unknown
	// originated marks the entries this node has flooded itself.
	originated []bool
	// seen is the relay dedupe: bit g of seen[2i] (seen[2i+1]) is set once
	// entry i's generation-g flood from its From (To) endpoint has been
	// handled. A generation is the origin's restart count, so it rarely
	// leaves [0, seenBits); seenHigh holds the ones that do, sorted.
	seen     []uint8
	seenHigh []highGen
	gen      int // current announcement generation (bumped on rejoin)

	// tolerant relaxes the write-once invariant for faulty runs: when a
	// node crashes mid-announcement its partial flood can leave witnesses
	// that later see the surviving endpoint recolor the arc. Only arcs
	// incident to a crashed node can be recolored (live–live arcs announce
	// endpoint-to-endpoint over the reliable transport before anyone else
	// may color them), and those arcs are excluded from the assembled
	// schedule, so witnesses keep their first-seen color and move on.
	tolerant bool

	// obuf is the scratch slice handed out by announceOwnTTL/observe/
	// reannounce. Callers consume the returned floods before the next call
	// on the same knowledge, so one buffer serves every announcement the
	// node ever makes.
	obuf []ColorAnnounce
}

// seenBits is the number of generations a seen mask holds.
const seenBits = 8

// highGen is a seen flood whose generation does not fit the seen masks:
// side is the seen index 2i or 2i+1 of the mask it extends.
type highGen struct {
	side int
	gen  int
}

// newKnowledge returns node id's empty table over the arcs with an endpoint
// within radius hops — the largest TTL the node's algorithm floods with.
func newKnowledge(id int, g *graph.Graph, radius int) *knowledge {
	lv := localViewOf(g, radius)
	n := len(lv.keys[id])
	return &knowledge{
		id:         id,
		g:          g,
		keys:       lv.keys[id],
		near:       lv.near[id],
		slot:       make([]int32, n),
		originated: make([]bool, n),
		seen:       make([]uint8, 2*n),
	}
}

// index returns a's position in the table.
func (k *knowledge) index(a graph.Arc) int {
	i, ok := slices.BinarySearch(k.keys, arcKey(a))
	if !ok {
		panic(fmt.Sprintf("core: node %d got arc %v outside its local view", k.id, a))
	}
	return i
}

// Color returns the known color of a, or coloring.None.
func (k *knowledge) Color(a graph.Arc) int { return int(k.slot[k.index(a)]) }

// Set stores a color this node chose itself (coloring.SlotTable).
func (k *knowledge) Set(a graph.Arc, c int) { k.record(a, c) }

// record stores a color, guarding the write-once invariant (no algorithm in
// this repository ever recolors an arc).
func (k *knowledge) record(a graph.Arc, c int) { k.recordAt(k.index(a), c) }

func (k *knowledge) recordAt(i, c int) {
	if prev := int(k.slot[i]); prev != coloring.None && prev != c {
		if k.tolerant {
			return // first writer wins; see the tolerant field
		}
		panic(fmt.Sprintf("core: node %d saw arc %v recolored %d -> %d", k.id, keyArc(k.keys[i]), prev, c))
	}
	k.slot[i] = int32(c)
}

// markSeen records the generation-gen flood of entry i (arc a) from origin
// and reports whether it is new. Only an endpoint of an arc floods it.
func (k *knowledge) markSeen(i int, a graph.Arc, origin, gen int) bool {
	side := 2 * i
	switch origin {
	case a.From:
	case a.To:
		side++
	default:
		panic(fmt.Sprintf("core: node %d got a flood of arc %v from non-endpoint %d", k.id, a, origin))
	}
	if uint(gen) < seenBits {
		bit := uint8(1) << uint(gen)
		if k.seen[side]&bit != 0 {
			return false
		}
		k.seen[side] |= bit
		return true
	}
	key := highGen{side: side, gen: gen}
	j, dup := slices.BinarySearchFunc(k.seenHigh, key, func(x, y highGen) int {
		return cmp.Or(cmp.Compare(x.side, y.side), cmp.Compare(x.gen, y.gen))
	})
	if dup {
		return false
	}
	k.seenHigh = slices.Insert(k.seenHigh, j, key)
	return true
}

// incident reports whether arc a touches this node.
func (k *knowledge) incident(a graph.Arc) bool { return a.From == k.id || a.To == k.id }

// announceOwn returns the TTL-2 floods for newly self-colored arcs, marking
// them originated.
func (k *knowledge) announceOwn(arcs []graph.Arc) []ColorAnnounce {
	return k.announceOwnTTL(arcs, 2)
}

// announceOwnTTL is announceOwn with an explicit flood radius (the
// randomized algorithm floods finals 3 hops so the next iteration's gambles
// everywhere see them). The result shares the knowledge's scratch buffer:
// consume it before the next announceOwnTTL/observe/reannounce call.
func (k *knowledge) announceOwnTTL(arcs []graph.Arc, ttl int) []ColorAnnounce {
	out := k.obuf[:0]
	for _, a := range arcs {
		out = k.appendOwn(out, k.index(a), a, ttl)
	}
	k.obuf = out[:0]
	return out
}

// appendOwn appends this node's own flood for entry i (arc a) unless already
// originated, marking it originated and seen.
func (k *knowledge) appendOwn(out []ColorAnnounce, i int, a graph.Arc, ttl int) []ColorAnnounce {
	c := int(k.slot[i])
	if c == coloring.None {
		panic(fmt.Sprintf("core: node %d announcing uncolored arc %v", k.id, a))
	}
	if k.originated[i] {
		return out
	}
	k.originated[i] = true
	k.markSeen(i, a, k.id, k.gen)
	return append(out, ColorAnnounce{Arc: a, Color: c, Origin: k.id, TTL: ttl, Gen: k.gen})
}

// reannounce is the push half of the rejoin handshake: fresh TTL-2 floods
// for every arc incident to this node whose color it knows, under a new
// generation at least gen. Pre-crash floods from this origin may have died
// mid-relay when the crash severed the only path, leaving 2-hop witnesses
// blind; the bumped generation defeats relay dedupe so the repair flood
// travels the full radius again. Originated bookkeeping is left untouched —
// it is kept per arc, and these arcs were already flooded once.
func (k *knowledge) reannounce(gen int) []ColorAnnounce {
	if gen > k.gen {
		k.gen = gen
	} else {
		k.gen++
	}
	out := k.obuf[:0]
	for _, a := range k.g.IncidentArcsView(k.id) {
		i := k.index(a)
		c := int(k.slot[i])
		if c == coloring.None {
			continue
		}
		k.markSeen(i, a, k.id, k.gen)
		out = append(out, ColorAnnounce{Arc: a, Color: c, Origin: k.id, TTL: 2, Gen: k.gen})
	}
	k.obuf = out[:0]
	return out
}

// observe ingests an incoming announce and returns the messages to send in
// response: the relayed copy (if the flood still travels) and, when the arc
// is incident to this node and not yet flooded from here, this endpoint's
// own TTL-2 flood (the "endpoint rule" that extends coverage to 2 hops from
// both endpoints).
func (k *knowledge) observe(f ColorAnnounce) []ColorAnnounce {
	out := k.obuf[:0]
	i := k.index(f.Arc)
	if k.markSeen(i, f.Arc, f.Origin, f.Gen) {
		k.recordAt(i, f.Color)
		if f.TTL > 1 {
			relay := f
			relay.TTL--
			out = append(out, relay)
		}
	}
	if k.incident(f.Arc) {
		out = k.appendOwn(out, i, f.Arc, 2)
	}
	k.obuf = out[:0]
	return out
}

// arcColor is one entry of a serialized color table. Tables travel as sorted
// slices, not maps: a slice ships one backing array instead of a fresh map
// plus per-bucket allocations, and the sorted order makes every consumer
// deterministic without re-sorting.
type arcColor struct {
	Arc   graph.Arc
	Color int
}

// merge folds a peer's color table into this node's knowledge (used by the
// DFS algorithm's explicit ask/reply exchange).
func (k *knowledge) merge(table []arcColor) {
	for _, e := range table {
		if e.Color != coloring.None {
			k.record(e.Arc, e.Color)
		}
	}
}

// snapshotLocal returns the part of the node's color table an asking
// neighbor actually needs: colors of arcs incident to this node or to one
// of its neighbors (this node's distance-1 view). Together with the asker's
// own table, replies from all neighbors cover every arc within distance 2
// of the asker — the exact knowledge required for feasible coloring — while
// keeping reply sizes O(Δ²) instead of shipping the whole learned table.
// The slice is freshly allocated and sorted by arc: it escapes into the
// simulator as a message payload and must never alias live node state.
func (k *knowledge) snapshotLocal() []arcColor {
	// Count first: the snapshot escapes into a reply message, so it is
	// sized exactly rather than at the table's size.
	n := 0
	for i, c := range k.slot {
		if c != coloring.None && k.near[i] {
			n++
		}
	}
	out := make([]arcColor, 0, n)
	for i, c := range k.slot {
		if c != coloring.None && k.near[i] {
			out = append(out, arcColor{Arc: keyArc(k.keys[i]), Color: int(c)})
		}
	}
	return out
}
