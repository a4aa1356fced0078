// Package graph provides the undirected and bi-directed graph substrate for
// the FDLSP (full duplex link scheduling problem) reproduction: adjacency
// structures, arcs, bounded-radius neighborhoods, triangle enumeration and a
// family of generators (unit disk graphs are produced by package geom on top
// of this package).
//
// Nodes are dense integers 0..N-1, matching the paper's model of a network of
// n processors with distinct identities. All structures are deterministic:
// neighbor slices are sorted, and iteration helpers visit nodes and edges in
// increasing order so that simulations are reproducible under a fixed seed.
package graph

import (
	"fmt"
	"maps"
	"sort"
	"sync/atomic"
)

// Graph is a simple undirected graph over nodes 0..N()-1.
//
// The zero value is an empty graph with no nodes; use New or the generators
// to construct usable instances. Self-loops and parallel edges are rejected.
//
// Read accessors build and share an internal sorted-topology cache (see
// cache.go); AddEdge/RemoveEdge patch it in place when it exists (or drop it
// when patching is disabled), journaling each change for incremental aux
// consumers. Mutating concurrently with reads is not supported — the cache
// keeps the same discipline the adjacency maps already require.
type Graph struct {
	adj   []map[int]struct{}
	m     int // number of undirected edges
	cache atomic.Pointer[topoCache]

	// Mutation bookkeeping for incremental consumers: epoch counts applied
	// mutations; journal holds the EdgeDelta of epochs jFirst..epoch
	// (contiguous, bounded — see EdgeDeltasSince). noPatch forces the
	// legacy invalidate-wholesale path.
	epoch   atomic.Uint64
	jFirst  uint64
	journal []EdgeDelta
	noPatch bool
}

// New returns an empty graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	g := &Graph{adj: make([]map[int]struct{}, n), jFirst: 1}
	for i := range g.adj {
		g.adj[i] = make(map[int]struct{})
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// check panics if v is out of range.
func (g *Graph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, len(g.adj)))
	}
}

// AddEdge inserts the undirected edge {u,v}. Adding an existing edge is a
// no-op; self-loops panic because the network model has none.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	if _, ok := g.adj[u][v]; ok {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.m++
	g.mutated(u, v, true)
}

// RemoveEdge deletes the undirected edge {u,v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	if _, ok := g.adj[u][v]; !ok {
		return
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.m--
	g.mutated(u, v, false)
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in increasing order. The returned
// slice is freshly allocated and may be retained by the caller; use
// NeighborsView for the shared zero-copy variant.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	if c := g.cache.Load(); c != nil {
		out := make([]int, len(c.nbrs[v]))
		copy(out, c.nbrs[v])
		return out
	}
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// EachNeighbor calls fn for every neighbor of v in increasing order.
func (g *Graph) EachNeighbor(v int, fn func(u int)) {
	for _, u := range g.Neighbors(v) {
		fn(u)
	}
}

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int }

// NormEdge returns the canonical form of edge {u,v} with U < V.
func NormEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Edges returns all undirected edges sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := range g.adj {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// MaxDegree returns Δ, the maximum node degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := range g.adj {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// AvgDegree returns the average node degree, 2m/n (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for u := range g.adj {
		for v := range g.adj[u] {
			if u < v {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// CloneShared returns a deep copy of g that starts from g's topology cache
// instead of rebuilding it. The clone copies the cache's outer row tables
// and shares its immutable rows, so arc ids agree between the two graphs,
// and it adopts every aux value implementing AuxSharable. A mutation of
// either graph patches its own tables copy-on-write and never shows through
// to the other. Clone stays the plain copy with cold caches.
func (g *Graph) CloneShared() *Graph {
	c := &Graph{adj: make([]map[int]struct{}, len(g.adj)), m: g.m, jFirst: 1}
	for u, nb := range g.adj {
		c.adj[u] = maps.Clone(nb)
	}
	if t := g.cache.Load(); t != nil {
		c.cache.Store(t.share(g, c))
	}
	return c
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := range g.adj {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for v := range g.adj[u] {
			if _, ok := h.adj[u][v]; !ok {
				return false
			}
		}
	}
	return true
}

// CommonNeighbors returns the nodes adjacent to both u and v, in increasing
// order. For an edge {u,v} each common neighbor forms a triangle with it.
func (g *Graph) CommonNeighbors(u, v int) []int {
	g.check(u)
	g.check(v)
	a, b := g.adj[u], g.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []int
	for w := range a {
		if _, ok := b[w]; ok {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// String returns a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.N(), g.M(), g.MaxDegree())
}
