// Package coloring defines the FDLSP conflict semantics — distance-2 edge
// coloring of a bi-directed graph (paper, Definition 2 and the ILP of
// Section 4) — together with a schedule verifier, a sequential greedy
// colorer (the Δ-approximation reference of Lemma 9/10), local greedy
// coloring used by the distributed algorithms, and the conflict-graph
// construction of Lemma 6.
//
// A color is a TDMA time slot; colors are 1-based and 0 (None) means
// "uncolored". Arc (u,v) colored c means u transmits to v in slot c.
package coloring

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"fdlsp/internal/graph"
)

// None is the color of an uncolored arc.
const None = 0

// Conflict reports whether arcs a and b may NOT share a color in graph g.
// Two distinct arcs conflict iff they share an endpoint (ILP constraints
// 4–6) or the head of one is adjacent to the tail of the other (hidden
// terminal problem, ILP constraint 2). An arc never conflicts with itself.
func Conflict(g *graph.Graph, a, b graph.Arc) bool {
	if a == b {
		return false
	}
	// Shared endpoint in any combination.
	if a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To {
		return true
	}
	// Hidden terminal: a's receiver hears b's transmitter, or vice versa.
	if g.HasEdge(a.To, b.From) || g.HasEdge(b.To, a.From) {
		return true
	}
	return false
}

// conflictCache is the per-graph distance-2 conflict structure: for every
// arc (by its stable graph.ArcIndex id) the sorted slice of conflicting
// arcs, each an exact-size allocation of its own. After a topology
// mutation the cache is *patched*, not rebuilt — it survives on
// the graph's aux table (AuxSurvivesMutation) and re-syncs lazily from the
// graph's edge-delta journal, replacing only the rows of arcs within
// distance 2 of the flipped edges' endpoints. Only when the journal has
// been truncated (or the graph disabled patching) does it fall back to a
// full rebuild.
//
// Readers never lock: rows are immutable once published and the synced
// epoch is advanced with a release store after all row writes, so the
// epoch-equality fast path in cacheOf orders reads after the patch.
type conflictCache struct {
	conflicts [][]graph.Arc // by stable arc id; nil for unassigned/freed ids
	epoch     atomic.Uint64 // graph.MutEpoch the rows are synced to
	mu        sync.Mutex    // serializes sync (patch or rebuild)

	rows        rowBuilder    // row construction scratch; used under mu once published
	patcher     patchScratch  // patch's stamps and flip list; used under mu
	builds      atomic.Uint64 // full row-set (re)builds
	patches     atomic.Uint64 // incremental syncs applied
	patchedArcs atomic.Uint64 // rows rewritten by incremental syncs

	// scratch pools the []bool color-occupancy buffers smallestFeasible
	// uses; pooling keeps the greedy inner loop allocation-free without
	// affecting determinism (buffers are cleared on every use).
	scratch sync.Pool
}

// AuxSurvivesMutation marks the cache as patchable: the graph keeps it
// across AddEdge/RemoveEdge instead of discarding it, and cacheOf re-syncs
// it from the mutation journal.
func (*conflictCache) AuxSurvivesMutation() {}

type conflictAuxKey struct{}

func cacheOf(g *graph.Graph) *conflictCache {
	c := g.Aux(conflictAuxKey{}, func() any { return newConflictCache(g) }).(*conflictCache)
	if c.epoch.Load() != g.MutEpoch() {
		c.sync(g)
	}
	return c
}

func newConflictCache(g *graph.Graph) *conflictCache {
	c := &conflictCache{}
	c.scratch.New = func() any { return new([]bool) }
	c.rebuild(g)
	c.epoch.Store(g.MutEpoch())
	return c
}

// rebuild recomputes every row from the live topology. Each row is its own
// exact-size allocation, so a row a later patch replaces is freed on its
// own rather than pinning a slab shared with every other row.
func (c *conflictCache) rebuild(g *graph.Graph) {
	conflicts := make([][]graph.Arc, g.ArcIDBound())
	c.rows.fit(g.N())
	for _, a := range g.ArcsView() {
		id, _ := g.ArcIndex(a)
		conflicts[id] = c.rows.row(g, a)
	}
	c.conflicts = conflicts
	c.builds.Add(1)
}

// sync brings the rows up to the graph's current mutation epoch: replay the
// edge-delta journal when it is contiguous from the cache's epoch (patching
// only the 2-hop neighborhood of the flipped edges), or rebuild everything
// when it is not.
func (c *conflictCache) sync(g *graph.Graph) {
	target := g.MutEpoch()
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.epoch.Load()
	if cur == target {
		return
	}
	if ds, ok := g.EdgeDeltasSince(cur); ok {
		c.patch(g, ds)
	} else {
		c.rebuild(g)
	}
	c.epoch.Store(target)
}

// patch replays journaled edge flips against the rows. Correctness rests on
// the paper's locality argument: flipping edge {u,v} changes the conflict
// set only of arcs with an endpoint in {u,v} ∪ N(u) ∪ N(v) — everything
// within distance 2 of the flip, nothing beyond. Replaying a whole batch
// against the final topology is sound by maximality: for the last journaled
// flip affecting an arc a, either a touches that flip's endpoints directly,
// or the adjacency that put a in its 2-hop set still holds at the final
// topology (any later change to it would itself be a later affecting flip).
// So rewriting every live arc incident to S = E ∪ N(E), where E = ∪ {u_i,v_i}
// and N is taken at the final topology, covers every stale row.
//
// Only the rows of arcs incident to E are rebuilt from scratch. An arc
// a = (f,t) with f, t ∉ E kept N(f) and N(t), hence its T and H sets (see
// rowBuilder), so an arc's membership in its row can only have changed if
// that arc is itself a flipped one: its old row is spliced instead (see
// splice).
func (c *conflictCache) patch(g *graph.Graph, ds []graph.EdgeDelta) {
	c.rows.fit(g.N())
	if bound := g.ArcIDBound(); bound > len(c.conflicts) {
		grown := make([][]graph.Arc, bound)
		copy(grown, c.conflicts)
		c.conflicts = grown
	}
	p := &c.patcher
	inE, inS := p.advance(g.N())
	p.nodes, p.flips = p.nodes[:0], p.flips[:0]
	for _, d := range ds {
		// Clear first: rows of removed arcs must die, and a freed id
		// recycled by a later addition in the same batch is rebuilt below
		// (its endpoints are in E).
		c.conflicts[d.IDUV] = nil
		c.conflicts[d.IDVU] = nil
		p.flips = append(p.flips, graph.Arc{From: d.U, To: d.V}, graph.Arc{From: d.V, To: d.U})
		for _, x := range [2]int{d.U, d.V} {
			if p.node[x] != inE {
				p.node[x] = inE
				p.nodes = append(p.nodes, x)
			}
		}
	}
	for i, ends := 0, len(p.nodes); i < ends; i++ {
		for _, w := range g.NeighborsView(p.nodes[i]) {
			if p.node[w] < inE {
				p.node[w] = inS
				p.nodes = append(p.nodes, w)
			}
		}
	}
	slices.SortFunc(p.flips, graph.CompareArcs)
	p.flips = slices.Compact(p.flips)
	p.live = p.live[:0]
	for _, b := range p.flips {
		p.live = append(p.live, g.HasEdge(b.From, b.To))
	}

	rewritten := 0
	for _, v := range p.nodes {
		for _, a := range g.IncidentArcsView(v) {
			// An arc with both endpoints in S is rewritten once, from its
			// smaller endpoint.
			w := a.From + a.To - v
			if p.node[w] >= inE && w < v {
				continue
			}
			id, _ := g.ArcIndex(a)
			if p.node[a.From] == inE || p.node[a.To] == inE {
				c.conflicts[id] = c.rows.row(g, a)
			} else {
				c.conflicts[id] = p.splice(g, a, c.conflicts[id])
			}
			rewritten++
		}
	}
	c.patches.Add(1)
	c.patchedArcs.Add(uint64(rewritten))
}

// patchScratch is patch's reusable state, used under the cache mutex.
type patchScratch struct {
	node  []uint32    // per node: gen-1 while in E, gen while in N(E) \ E
	gen   uint32      // advances by 2 per patch
	nearT []uint32    // per node: row while in N(t) of the row being spliced
	nearH []uint32    // per node: row while in N(f) of the row being spliced
	row   uint32      // advances by 1 per spliced row
	nodes []int       // S = E ∪ N(E), E first
	flips []graph.Arc // arcs of the batch's flipped edges, sorted, deduplicated
	live  []bool      // per flips entry: an arc of the final topology
	cuts  []spliceCut // splice's scratch
}

// advance starts a patch of an n-node graph and returns its E and S stamps.
func (p *patchScratch) advance(n int) (inE, inS uint32) {
	if len(p.node) < n {
		p.node = make([]uint32, n)
		p.nearT = make([]uint32, n)
		p.nearH = make([]uint32, n)
		p.gen, p.row = 0, 0
	}
	if p.gen > math.MaxUint32-2 {
		clear(p.node)
		p.gen = 0
	}
	p.gen += 2
	return p.gen - 1, p.gen
}

// splice returns the row of a = (f,t) — an arc with no endpoint in E — at
// the final topology, as an exact-size copy, from its row old before the
// batch. With f, t ∉ E no flipped arc b shares an endpoint with a, so b
// conflicts with a iff b.From ∈ N(t) or b.To ∈ N(f), and N(t), N(f) did not
// change: such a b was in old iff it existed before the batch, and belongs
// in the new row iff it is live. Every other flipped arc is in neither. One
// pass locates the conflicting flipped arcs in old and sizes the row; a
// second copies the untouched runs of old between them whole.
func (p *patchScratch) splice(g *graph.Graph, a graph.Arc, old []graph.Arc) []graph.Arc {
	if p.row == math.MaxUint32 {
		clear(p.nearT)
		clear(p.nearH)
		p.row = 0
	}
	p.row++
	s := p.row
	for _, x := range g.NeighborsView(a.To) {
		p.nearT[x] = s
	}
	for _, y := range g.NeighborsView(a.From) {
		p.nearH[y] = s
	}
	p.cuts = p.cuts[:0]
	size, from := len(old), 0
	for j, b := range p.flips {
		if p.nearT[b.From] != s && p.nearH[b.To] != s {
			continue
		}
		at, found := searchArc(old[from:], b)
		at += from
		from = at
		if found {
			from++
			size--
		}
		if p.live[j] {
			size++
		}
		p.cuts = append(p.cuts, spliceCut{arc: b, at: at, found: found, keep: p.live[j]})
	}
	row := make([]graph.Arc, 0, size)
	from = 0
	for _, c := range p.cuts {
		row = append(row, old[from:c.at]...)
		from = c.at
		if c.found {
			from++
		}
		if c.keep {
			row = append(row, c.arc)
		}
	}
	return append(row, old[from:]...)
}

// spliceCut is where one conflicting flipped arc meets an old row: its
// sorted position, whether the row held it, and whether the new row does.
type spliceCut struct {
	arc         graph.Arc
	at          int
	found, keep bool
}

// searchArc returns the position of b in the (From, To)-sorted row and
// whether row holds it. It is slices.BinarySearchFunc with the comparison
// written inline, which a generic call through graph.CompareArcs is not.
func searchArc(row []graph.Arc, b graph.Arc) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := row[m]; c.From < b.From || (c.From == b.From && c.To < b.To) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo] == b
}

// CacheStatsSnapshot reports the lifetime work of a graph's conflict cache:
// full row-set builds, incremental patches, and rows rewritten by patches.
type CacheStatsSnapshot struct {
	Builds      uint64
	Patches     uint64
	PatchedArcs uint64
}

// CacheStats returns the conflict cache's maintenance counters for g,
// creating (and syncing) the cache if needed. Counters reset when the
// cache itself is discarded (a non-patched mutation or deserialization).
func CacheStats(g *graph.Graph) CacheStatsSnapshot {
	c := cacheOf(g)
	return CacheStatsSnapshot{
		Builds:      c.builds.Load(),
		Patches:     c.patches.Load(),
		PatchedArcs: c.patchedArcs.Load(),
	}
}

// rowBuilder computes conflict rows in (From, To) order without sorting
// arcs. By Conflict, the row of a = (f,t) is every arc (x,y) ≠ a with
//
//	x ∈ T = {f,t} ∪ N(t)   (shares an endpoint, or x is heard at t), or
//	y ∈ H = {f,t} ∪ N(f)   (shares an endpoint, or f is heard at y).
//
// Every such arc has its tail in T ∪ N(H), so the builder collects those
// tails once — deduplicated with generation stamps, then sorted as ints —
// and walks each tail's out-row, which the topology cache keeps sorted by
// head: whole for a tail in T, filtered by "head ∈ H" otherwise. Tails in
// increasing order with heads increasing within each tail is exactly the
// (From, To) order. Membership is one stamp read per arc: no map, no
// binary search, no arc comparison.
//
// A builder is single-threaded scratch: the conflict cache owns one and
// uses it under its mutex; the hypothetical-arc path of ConflictingArcs
// borrows one from builderPool.
type rowBuilder struct {
	tail  []uint32 // per node: gen-1 once collected into T, gen once collected from N(H)
	head  []uint32 // per node: gen-1 while in H
	gen   uint32   // stamp of the row being built; advances by 2 per row
	tails []int
	buf   []graph.Arc
}

var builderPool = sync.Pool{New: func() any { return new(rowBuilder) }}

// fit sizes the stamp arrays for an n-node graph.
func (rb *rowBuilder) fit(n int) {
	if len(rb.tail) < n {
		rb.tail = make([]uint32, n)
		rb.head = make([]uint32, n)
		rb.gen = 0
	}
}

// appendRow appends the sorted conflict row of a to dst. The cost is one
// visit per neighbor of each node in {f} ∪ N(f) (collecting N(H)), one per
// out-arc of each collected tail (emission), and an int sort of the tails —
// O(Σ_{y∈H} deg y + Σ_{x∈T∪N(H)} deg x + |tails|·log|tails|).
func (rb *rowBuilder) appendRow(g *graph.Graph, a graph.Arc, dst []graph.Arc) []graph.Arc {
	if rb.gen > math.MaxUint32-2 {
		clear(rb.tail)
		clear(rb.head)
		rb.gen = 0
	}
	rb.gen += 2
	inT, inN := rb.gen-1, rb.gen
	f, t := a.From, a.To
	nf, nt := g.NeighborsView(f), g.NeighborsView(t)

	rb.tails = rb.tails[:0]
	rb.collect(inT, inT, f)
	rb.collect(inT, inT, t)
	rb.collect(inT, inT, nt...)
	rb.head[f], rb.head[t] = inT, inT
	for _, y := range nf {
		rb.head[y] = inT
	}
	// Tails of arcs into H. N(t) ⊆ T already, so t's neighbors are skipped.
	rb.collect(inT, inN, nf...)
	for _, y := range nf {
		if y != t {
			rb.collect(inT, inN, g.NeighborsView(y)...)
		}
	}
	slices.Sort(rb.tails)

	for _, x := range rb.tails {
		out := g.OutArcsView(x)
		if rb.tail[x] == inT {
			for _, b := range out {
				if b != a {
					dst = append(dst, b)
				}
			}
			continue
		}
		for _, b := range out {
			if rb.head[b.To] == inT {
				dst = append(dst, b)
			}
		}
	}
	return dst
}

// collect stamps each not-yet-collected node of xs with s and records it as
// a tail of the row whose first stamp is inT.
func (rb *rowBuilder) collect(inT, s uint32, xs ...int) {
	for _, x := range xs {
		if rb.tail[x] < inT {
			rb.tail[x] = s
			rb.tails = append(rb.tails, x)
		}
	}
}

// row returns a's conflict row as an exact-size copy (nil when empty).
func (rb *rowBuilder) row(g *graph.Graph, a graph.Arc) []graph.Arc {
	rb.buf = rb.appendRow(g, a, rb.buf[:0])
	if len(rb.buf) == 0 {
		return nil
	}
	row := make([]graph.Arc, len(rb.buf))
	copy(row, rb.buf)
	return row
}

// ConflictingArcs returns every arc of g that conflicts with a, sorted. Per
// Lemma 6 this set has at most 2Δ²-1 members: arcs touching a's endpoints,
// out-arcs of a.To's neighbors and in-arcs of a.From's neighbors.
//
// The result is a shared slice from the per-graph conflict cache: callers
// must treat it as read-only. It stays valid until the next AddEdge or
// RemoveEdge on g.
func ConflictingArcs(g *graph.Graph, a graph.Arc) []graph.Arc {
	if i, ok := g.ArcIndex(a); ok {
		return cacheOf(g).conflicts[i]
	}
	// a is not an arc of g (callers probing hypothetical links): compute a
	// fresh set without touching the cache.
	rb := builderPool.Get().(*rowBuilder)
	rb.fit(g.N())
	row := rb.row(g, a)
	builderPool.Put(rb)
	return row
}

// Assignment maps each arc of the bi-directed graph to a color (time slot).
type Assignment map[graph.Arc]int

// NewAssignment returns an empty assignment sized for every arc of g. Use
// NewAssignmentSized when the expected table is a local or pruned view much
// smaller than the full graph — pre-sizing per-node tables at 2*g.M() wastes
// memory quadratically across n nodes.
func NewAssignment(g *graph.Graph) Assignment {
	return make(Assignment, 2*g.M())
}

// NewAssignmentSized returns an empty assignment pre-sized for about `arcs`
// entries.
func NewAssignmentSized(arcs int) Assignment {
	return make(Assignment, arcs)
}

// Color returns the color of a, or None.
func (as Assignment) Color(a graph.Arc) int { return as[a] }

// Set colors arc a with c (c must be >= 1).
func (as Assignment) Set(a graph.Arc, c int) {
	if c < 1 {
		panic(fmt.Sprintf("coloring: invalid color %d for %v", c, a))
	}
	as[a] = c
}

// NumColors returns the largest color in use, i.e. the TDMA frame length.
// It is not the number of colors used: crash/rejoin runs can retire colors
// and leave gaps, so report DistinctColors alongside it where they can
// diverge.
func (as Assignment) NumColors() int {
	max := 0
	for _, c := range as {
		if c > max {
			max = c
		}
	}
	return max
}

// DistinctColors returns the number of distinct colors in use. For complete
// fault-free greedy colorings every color below the maximum is used
// somewhere (the arc that picked the max saw all smaller colors occupied),
// so DistinctColors == NumColors; after crashes discard part of a schedule
// the remaining colors can have gaps and DistinctColors < NumColors.
func (as Assignment) DistinctColors() int {
	seen := make(map[int]struct{}, 16)
	for _, c := range as {
		if c != None {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}

// Complete reports whether every arc of g is colored.
func (as Assignment) Complete(g *graph.Graph) bool {
	for _, a := range g.ArcsView() {
		if as[a] == None {
			return false
		}
	}
	return true
}

// Clone returns a copy of the assignment.
func (as Assignment) Clone() Assignment {
	c := make(Assignment, len(as))
	for a, col := range as {
		c[a] = col
	}
	return c
}

// Violation describes a pair of same-colored conflicting arcs.
type Violation struct {
	A, B  graph.Arc
	Color int
}

func (v Violation) String() string {
	return fmt.Sprintf("arcs %v and %v both use slot %d", v.A, v.B, v.Color)
}

// Verify checks that as is a complete, feasible FDLSP schedule for g: every
// arc colored and no two conflicting arcs share a color. It returns all
// violations found (uncolored arcs are reported as a violation with B equal
// to A and Color None): the uncolored arcs in (From, To) order, then per
// color ascending every conflicting pair of that color, ordered by its
// first and then its second member.
//
// Verify reads only the adjacency, not the conflict cache, so it stays an
// independent check of the cache's consumers. By Conflict, the arcs
// conflicting with a = (f,t) are those with a tail in T = {f,t} ∪ N(t) or
// a head in H = {f,t} ∪ N(f); per color class, a per-node index of the
// class's arcs by tail and by head lists them in O(|T| + |H|) lookups.
func Verify(g *graph.Graph, as Assignment) []Violation {
	var viols []Violation
	type coloredArc struct {
		c int
		a graph.Arc
	}
	var colored []coloredArc
	for _, a := range g.ArcsView() {
		c := as[a]
		if c == None {
			viols = append(viols, Violation{A: a, B: a, Color: None})
			continue
		}
		colored = append(colored, coloredArc{c, a})
	}
	slices.SortFunc(colored, func(x, y coloredArc) int {
		if x.c != y.c {
			return cmp.Compare(x.c, y.c)
		}
		return graph.CompareArcs(x.a, y.a)
	})
	ix := newClassIndex(g.N())
	var class []graph.Arc
	for lo := 0; lo < len(colored); {
		c := colored[lo].c
		class = class[:0]
		for ; lo < len(colored) && colored[lo].c == c; lo++ {
			class = append(class, colored[lo].a)
		}
		viols = ix.violations(g, class, c, viols)
	}
	return viols
}

// classIndex locates one color class's arcs by tail and by head. The class
// is sorted by (From, To), so each tail's arcs form a position range; each
// head's arcs form a linked list of positions in increasing order. Per-node
// entries are valid only while their stamp equals the current class's.
type classIndex struct {
	stamp    []uint32
	gen      uint32
	tailLo   []int32
	tailHi   []int32 // -1: no arc of the class leaves the node
	headNext []int32 // per class position: the next position with its head, or -1
	headFst  []int32 // per node: the first position with it as head, or -1
	cand     []int32
}

func newClassIndex(n int) *classIndex {
	return &classIndex{
		stamp:   make([]uint32, n),
		tailLo:  make([]int32, n),
		tailHi:  make([]int32, n),
		headFst: make([]int32, n),
	}
}

// touch makes x's entries current, empty if x is new to this class.
func (ix *classIndex) touch(x int) {
	if ix.stamp[x] != ix.gen {
		ix.stamp[x] = ix.gen
		ix.tailHi[x] = -1
		ix.headFst[x] = -1
	}
}

// violations indexes class (sorted, all colored c) and appends its
// conflicting pairs to viols.
func (ix *classIndex) violations(g *graph.Graph, class []graph.Arc, c int, viols []Violation) []Violation {
	ix.gen++
	ix.headNext = slices.Grow(ix.headNext[:0], len(class))[:len(class)]
	// Descending, so head lists come out ascending.
	for j := len(class) - 1; j >= 0; j-- {
		b := class[j]
		ix.touch(b.From)
		ix.touch(b.To)
		if ix.tailHi[b.From] < 0 {
			ix.tailHi[b.From] = int32(j + 1)
		}
		ix.tailLo[b.From] = int32(j)
		ix.headNext[j] = ix.headFst[b.To]
		ix.headFst[b.To] = int32(j)
	}
	for i, a := range class {
		// T is {t} ∪ N(t) and H is {f} ∪ N(f): f ∈ N(t) and t ∈ N(f).
		ix.cand = ix.cand[:0]
		ix.tails(a.To, i)
		for _, x := range g.NeighborsView(a.To) {
			ix.tails(x, i)
		}
		ix.heads(a.From, i)
		for _, y := range g.NeighborsView(a.From) {
			ix.heads(y, i)
		}
		slices.Sort(ix.cand)
		for k, j := range ix.cand {
			if k == 0 || ix.cand[k-1] != j {
				viols = append(viols, Violation{A: a, B: class[j], Color: c})
			}
		}
	}
	return viols
}

// tails collects the class positions after i whose arc leaves x.
func (ix *classIndex) tails(x, i int) {
	if ix.stamp[x] != ix.gen {
		return
	}
	for j := max(ix.tailLo[x], int32(i+1)); j < ix.tailHi[x]; j++ {
		ix.cand = append(ix.cand, j)
	}
}

// heads collects the class positions after i whose arc enters y.
func (ix *classIndex) heads(y, i int) {
	if ix.stamp[y] != ix.gen {
		return
	}
	for j := ix.headFst[y]; j >= 0; j = ix.headNext[j] {
		if int(j) > i {
			ix.cand = append(ix.cand, j)
		}
	}
}

// Valid reports whether as is a complete and feasible schedule for g.
func Valid(g *graph.Graph, as Assignment) bool { return len(Verify(g, as)) == 0 }

// SlotTable is the slot storage AssignGreedyLocal reads and writes: an
// Assignment, or a protocol node's table of the arcs it can know about.
// Color returns None for an uncolored arc; Set is only called on arcs Color
// reported uncolored, with a color >= 1.
type SlotTable interface {
	Color(a graph.Arc) int
	Set(a graph.Arc, c int)
}

// smallestFeasible returns the smallest color >= 1 not used by any arc
// conflicting with a under the (possibly partial) knowledge know. The answer
// is at most |conflicts(a)|+1, so a pooled []bool occupancy buffer of that
// size replaces the per-call map the function used to allocate.
func smallestFeasible(g *graph.Graph, know SlotTable, a graph.Arc) int {
	cc := cacheOf(g)
	confs := ConflictingArcs(g, a)
	n := len(confs) + 2
	bufp := cc.scratch.Get().(*[]bool)
	used := *bufp
	if cap(used) < n {
		used = make([]bool, n)
	} else {
		used = used[:n]
		clear(used)
	}
	for _, b := range confs {
		if c := know.Color(b); c != None && c < n {
			used[c] = true
		}
	}
	res := n - 1 // pigeonhole: some color in [1, len(confs)+1] is free
	for c := 1; c < n; c++ {
		if !used[c] {
			res = c
			break
		}
	}
	*bufp = used
	cc.scratch.Put(bufp)
	return res
}

// AssignGreedyLocal colors each arc of arcs (in order, skipping already
// colored ones) with the smallest color feasible against the colors recorded
// in know, writing the result into know. It returns the newly colored arcs.
// This is the per-node coloring step shared by DistMIS and the DFS
// algorithm: know is the node's distance-2 color knowledge.
func AssignGreedyLocal(g *graph.Graph, know SlotTable, arcs []graph.Arc) []graph.Arc {
	var colored []graph.Arc
	for _, a := range arcs {
		if know.Color(a) != None {
			continue
		}
		know.Set(a, smallestFeasible(g, know, a))
		colored = append(colored, a)
	}
	return colored
}

// Greedy sequentially colors every arc of g in the given order (all arcs of
// g, by default in lexicographic order when order is nil) with the smallest
// feasible color. This is the greedyColor reference algorithm of Lemma 9:
// it uses at most 2Δ² colors (Lemma 6) and is therefore a Δ-approximation
// (Theorem 2).
func Greedy(g *graph.Graph, order []graph.Arc) Assignment {
	if order == nil {
		order = g.Arcs()
	}
	as := NewAssignment(g)
	AssignGreedyLocal(g, as, order)
	return as
}

// ConflictGraph builds the conflict graph G' of Lemma 6: one vertex per arc
// of g, an edge between two vertices when their arcs conflict. It returns
// the graph and the arc corresponding to each vertex. Any proper vertex
// coloring of the result is a feasible FDLSP schedule for g.
func ConflictGraph(g *graph.Graph) (*graph.Graph, []graph.Arc) {
	arcs := g.Arcs()
	// Vertex numbering follows the sorted arc list, not graph.ArcIndex:
	// stable arc ids drift from sorted positions once the topology has been
	// patched, and the conflict graph's vertices must stay position-keyed.
	pos := make(map[graph.Arc]int, len(arcs))
	for i, a := range arcs {
		pos[a] = i
	}
	cg := graph.New(len(arcs))
	for i, a := range arcs {
		for _, b := range ConflictingArcs(g, a) {
			if j := pos[b]; i < j {
				cg.AddEdge(i, j)
			}
		}
	}
	return cg, arcs
}
