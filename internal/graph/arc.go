package graph

import (
	"fmt"
	"slices"
)

// Arc is a directed communication link: From transmits, To receives. The
// bi-directed graph of the paper contains both (u,v) and (v,u) for every
// undirected edge {u,v}.
type Arc struct {
	From, To int
}

// Reverse returns the opposite arc.
func (a Arc) Reverse() Arc { return Arc{From: a.To, To: a.From} }

// Edge returns the underlying undirected edge in canonical form.
func (a Arc) Edge() Edge { return NormEdge(a.From, a.To) }

// String renders the arc as "u->v".
func (a Arc) String() string { return fmt.Sprintf("%d->%d", a.From, a.To) }

// CompareArcs is the (From, To) lexicographic order of every sorted arc
// list the graph hands out and the schedule-maintenance path keeps, in the
// cmp convention of slices.SortFunc: negative when a sorts first, zero when
// a == b, positive otherwise.
func CompareArcs(a, b Arc) int {
	if a.From != b.From {
		return a.From - b.From
	}
	return a.To - b.To
}

// cloneArcs returns a freshly allocated copy of a cached arc slice.
func cloneArcs(src []Arc) []Arc {
	out := make([]Arc, len(src))
	copy(out, src)
	return out
}

// Arcs returns both arcs of every undirected edge, sorted lexicographically
// by (From, To). For a graph with m edges the result has 2m arcs. The slice
// is freshly allocated; ArcsView is the shared zero-copy variant.
func (g *Graph) Arcs() []Arc {
	if g.cache.Load() != nil {
		return cloneArcs(g.ArcsView())
	}
	out := make([]Arc, 0, 2*g.m)
	for u := range g.adj {
		for v := range g.adj[u] {
			out = append(out, Arc{From: u, To: v})
		}
	}
	slices.SortFunc(out, CompareArcs)
	return out
}

// IncidentArcs returns all arcs with v as an endpoint (both directions of
// every incident edge), sorted. The slice is freshly allocated;
// IncidentArcsView is the shared zero-copy variant.
func (g *Graph) IncidentArcs(v int) []Arc {
	g.check(v)
	if c := g.cache.Load(); c != nil {
		return cloneArcs(c.incident[v])
	}
	nbrs := g.Neighbors(v)
	out := make([]Arc, 0, 2*len(nbrs))
	for _, u := range nbrs {
		out = append(out, Arc{From: v, To: u}, Arc{From: u, To: v})
	}
	slices.SortFunc(out, CompareArcs)
	return out
}

// OutArcs returns the arcs leaving v, sorted by head. The slice is freshly
// allocated; OutArcsView is the shared zero-copy variant.
func (g *Graph) OutArcs(v int) []Arc {
	g.check(v)
	if c := g.cache.Load(); c != nil {
		return cloneArcs(c.out[v])
	}
	nbrs := g.Neighbors(v)
	out := make([]Arc, 0, len(nbrs))
	for _, u := range nbrs {
		out = append(out, Arc{From: v, To: u})
	}
	return out
}

// InArcs returns the arcs entering v, sorted by tail. The slice is freshly
// allocated; InArcsView is the shared zero-copy variant.
func (g *Graph) InArcs(v int) []Arc {
	g.check(v)
	if c := g.cache.Load(); c != nil {
		return cloneArcs(c.in[v])
	}
	nbrs := g.Neighbors(v)
	out := make([]Arc, 0, len(nbrs))
	for _, u := range nbrs {
		out = append(out, Arc{From: u, To: v})
	}
	return out
}
