package core

import (
	"sort"

	"fdlsp/internal/graph"
)

// SurvivingGraph returns a copy of g with every edge incident to a crashed
// node removed. Node ids are preserved, so assignments produced on g verify
// directly against the surviving graph: exactly the arcs between pairs of
// live nodes remain, which is the set a faulty run's schedule is responsible
// for (a crashed radio neither sends nor receives, so its links need no TDMA
// slot).
func SurvivingGraph(g *graph.Graph, crashed []int) *graph.Graph {
	s := g.Clone()
	for _, v := range crashed {
		for _, u := range g.Neighbors(v) {
			s.RemoveEdge(v, u)
		}
	}
	return s
}

// deadList flattens a mask back to a sorted id list.
func deadList(dead []bool) []int {
	var out []int
	for v, d := range dead {
		if d {
			out = append(out, v)
		}
	}
	return out
}

// arcAlive reports whether neither endpoint of a is dead.
func arcAlive(a graph.Arc, dead []bool) bool { return !dead[a.From] && !dead[a.To] }

// mergeCrashed records newly crashed nodes into the mask and returns how
// many were new.
func mergeCrashed(dead []bool, crashed []int) int {
	fresh := 0
	for _, v := range crashed {
		if !dead[v] {
			dead[v] = true
			fresh++
		}
	}
	return fresh
}

// sortedUnique sorts ids ascending, dropping duplicates.
func sortedUnique(ids []int) []int {
	sort.Ints(ids)
	out := ids[:0]
	for i, v := range ids {
		if i == 0 || v != ids[i-1] {
			out = append(out, v)
		}
	}
	return out
}
