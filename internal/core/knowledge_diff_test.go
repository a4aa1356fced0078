package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/graph"
)

// refKnowledge is the map-based node table the dense knowledge replaced,
// kept only as a reference model: one Assignment of learned colors, a set
// of originated arcs and a set of (origin, arc, generation) floods seen.
type refKnowledge struct {
	id         int
	g          *graph.Graph
	know       coloring.Assignment
	originated map[graph.Arc]struct{}
	seen       map[refAnnKey]struct{}
	gen        int
	tolerant   bool
}

type refAnnKey struct {
	origin int
	arc    graph.Arc
	gen    int
}

func newRefKnowledge(id int, g *graph.Graph) *refKnowledge {
	return &refKnowledge{
		id:         id,
		g:          g,
		know:       coloring.Assignment{},
		originated: map[graph.Arc]struct{}{},
		seen:       map[refAnnKey]struct{}{},
	}
}

func (k *refKnowledge) record(a graph.Arc, c int) {
	if prev := k.know[a]; prev != coloring.None && prev != c {
		if k.tolerant {
			return
		}
		panic(fmt.Sprintf("ref: node %d saw arc %v recolored %d -> %d", k.id, a, prev, c))
	}
	k.know[a] = c
}

func (k *refKnowledge) incident(a graph.Arc) bool { return a.From == k.id || a.To == k.id }

func (k *refKnowledge) appendOwn(out []ColorAnnounce, a graph.Arc, ttl int) []ColorAnnounce {
	c := k.know[a]
	if c == coloring.None {
		panic(fmt.Sprintf("ref: node %d announcing uncolored arc %v", k.id, a))
	}
	if _, dup := k.originated[a]; dup {
		return out
	}
	k.originated[a] = struct{}{}
	k.seen[refAnnKey{origin: k.id, arc: a, gen: k.gen}] = struct{}{}
	return append(out, ColorAnnounce{Arc: a, Color: c, Origin: k.id, TTL: ttl, Gen: k.gen})
}

func (k *refKnowledge) announceOwnTTL(arcs []graph.Arc, ttl int) []ColorAnnounce {
	var out []ColorAnnounce
	for _, a := range arcs {
		out = k.appendOwn(out, a, ttl)
	}
	return out
}

func (k *refKnowledge) reannounce(gen int) []ColorAnnounce {
	if gen > k.gen {
		k.gen = gen
	} else {
		k.gen++
	}
	var out []ColorAnnounce
	for _, a := range k.g.IncidentArcsView(k.id) {
		c := k.know[a]
		if c == coloring.None {
			continue
		}
		k.seen[refAnnKey{origin: k.id, arc: a, gen: k.gen}] = struct{}{}
		out = append(out, ColorAnnounce{Arc: a, Color: c, Origin: k.id, TTL: 2, Gen: k.gen})
	}
	return out
}

func (k *refKnowledge) observe(f ColorAnnounce) []ColorAnnounce {
	var out []ColorAnnounce
	key := refAnnKey{origin: f.Origin, arc: f.Arc, gen: f.Gen}
	if _, dup := k.seen[key]; !dup {
		k.seen[key] = struct{}{}
		k.record(f.Arc, f.Color)
		if f.TTL > 1 {
			relay := f
			relay.TTL--
			out = append(out, relay)
		}
	}
	if k.incident(f.Arc) {
		out = k.appendOwn(out, f.Arc, 2)
	}
	return out
}

func (k *refKnowledge) merge(table []arcColor) {
	for _, e := range table {
		if e.Color != coloring.None {
			k.record(e.Arc, e.Color)
		}
	}
}

func (k *refKnowledge) mergeIncident(table []arcColor) []ColorAnnounce {
	var out []ColorAnnounce
	for _, e := range table {
		if e.Color == coloring.None {
			continue
		}
		fresh := k.incident(e.Arc) && k.know[e.Arc] == coloring.None
		k.record(e.Arc, e.Color)
		if !fresh {
			continue
		}
		key := refAnnKey{origin: k.id, arc: e.Arc, gen: k.gen}
		if _, dup := k.seen[key]; dup {
			continue
		}
		k.seen[key] = struct{}{}
		out = append(out, ColorAnnounce{Arc: e.Arc, Color: k.know[e.Arc], Origin: k.id, TTL: 2, Gen: k.gen})
	}
	return out
}

func (k *refKnowledge) localTo(a graph.Arc) bool {
	if a.From == k.id || a.To == k.id {
		return true
	}
	return k.g.HasEdge(k.id, a.From) || k.g.HasEdge(k.id, a.To)
}

func (k *refKnowledge) snapshotLocal() []arcColor {
	out := []arcColor{}
	for a, c := range k.know {
		if k.localTo(a) {
			out = append(out, arcColor{Arc: a, Color: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i].Arc, out[j].Arc) })
	return out
}

// knowledgeScript drives a dense knowledge and the reference model through
// one seeded sequence of protocol operations and fails on the first output
// that differs.
type knowledgeScript struct {
	t        *testing.T
	rng      *rand.Rand
	g        *graph.Graph
	k        *knowledge
	ref      *refKnowledge
	view     []graph.Arc       // every arc of the node's local view
	incident []graph.Arc       // the node's own arcs
	truth    map[graph.Arc]int // the color a flood of each arc carries
	sent     []ColorAnnounce   // earlier floods, replayed as duplicates
}

func newKnowledgeScript(t *testing.T, seed int64, tolerant bool) *knowledgeScript {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(30)
	m := n - 1 + rng.Intn(2*n)
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	g := graph.ConnectedGNM(n, m, rng)
	id := rng.Intn(n)
	s := &knowledgeScript{
		t: t, rng: rng, g: g,
		k:        newKnowledge(id, g, 2),
		ref:      newRefKnowledge(id, g),
		incident: g.IncidentArcsView(id),
		truth:    map[graph.Arc]int{},
	}
	s.k.tolerant, s.ref.tolerant = tolerant, tolerant
	for _, key := range s.k.keys {
		a := keyArc(key)
		s.view = append(s.view, a)
		s.truth[a] = 1 + rng.Intn(9)
	}
	return s
}

// color is the color the script puts on a: the one the node already holds
// (so a strict table is never asked to recolor), else the arc's truth, and
// under tolerance sometimes a different one.
func (s *knowledgeScript) color(a graph.Arc) int {
	if s.ref.tolerant && s.rng.Intn(4) == 0 {
		return 1 + s.rng.Intn(9)
	}
	if c := s.ref.know[a]; c != coloring.None {
		return c
	}
	return s.truth[a]
}

func (s *knowledgeScript) flood() ColorAnnounce {
	if len(s.sent) > 0 && s.rng.Intn(3) == 0 {
		return s.sent[s.rng.Intn(len(s.sent))]
	}
	a := s.view[s.rng.Intn(len(s.view))]
	origin := a.From
	if s.rng.Intn(2) == 0 {
		origin = a.To
	}
	f := ColorAnnounce{Arc: a, Color: s.color(a), Origin: origin, TTL: 1 + s.rng.Intn(2), Gen: s.rng.Intn(71)}
	s.sent = append(s.sent, f)
	return f
}

// table is a sorted peer table over random view arcs, some uncolored.
func (s *knowledgeScript) table() []arcColor {
	var tab []arcColor
	for _, a := range s.view {
		switch s.rng.Intn(6) {
		case 0:
			tab = append(tab, arcColor{Arc: a, Color: coloring.None})
		case 1, 2:
			tab = append(tab, arcColor{Arc: a, Color: s.color(a)})
		}
	}
	return tab
}

func (s *knowledgeScript) pick(arcs []graph.Arc) []graph.Arc {
	var out []graph.Arc
	for _, a := range arcs {
		if s.rng.Intn(2) == 0 {
			out = append(out, a)
		}
	}
	return out
}

func (s *knowledgeScript) same(step int, op string, got, want any) {
	s.t.Helper()
	if !reflect.DeepEqual(got, want) {
		s.t.Fatalf("step %d %s: dense table gave %v, reference %v", step, op, got, want)
	}
}

// floods copies a result out of the knowledge's scratch buffer and maps an
// empty result to nil so it compares with the reference's.
func floods(out []ColorAnnounce) []ColorAnnounce {
	if len(out) == 0 {
		return nil
	}
	return append([]ColorAnnounce(nil), out...)
}

func (s *knowledgeScript) run(steps int) {
	for step := 0; step < steps; step++ {
		switch op := s.rng.Intn(10); op {
		case 0, 1, 2, 3:
			f := s.flood()
			s.same(step, fmt.Sprintf("observe(%+v)", f), floods(s.k.observe(f)), s.ref.observe(f))
		case 4:
			arcs := s.pick(s.incident)
			got := coloring.AssignGreedyLocal(s.g, s.k, arcs)
			s.same(step, "AssignGreedyLocal", got, coloring.AssignGreedyLocal(s.g, s.ref.know, arcs))
			for _, a := range got {
				s.truth[a] = s.ref.know[a]
			}
		case 5:
			var colored []graph.Arc
			for _, a := range s.pick(s.incident) {
				if s.ref.know[a] != coloring.None {
					colored = append(colored, a)
				}
			}
			ttl := 2 + s.rng.Intn(2)
			s.same(step, "announceOwnTTL", floods(s.k.announceOwnTTL(colored, ttl)), s.ref.announceOwnTTL(colored, ttl))
		case 6:
			tab := s.table()
			s.k.merge(tab)
			s.ref.merge(tab)
		case 7:
			tab := s.table()
			s.same(step, "mergeIncident", floods(s.k.mergeIncident(tab)), s.ref.mergeIncident(tab))
		case 8:
			if s.rng.Intn(3) == 0 {
				gen := s.rng.Intn(71)
				s.same(step, fmt.Sprintf("reannounce(%d)", gen), floods(s.k.reannounce(gen)), s.ref.reannounce(gen))
			}
		case 9:
			s.same(step, "snapshotLocal", s.k.snapshotLocal(), s.ref.snapshotLocal())
		}
		s.same(step, "gen", s.k.gen, s.ref.gen)
	}
	for _, a := range s.view {
		s.same(steps, fmt.Sprintf("Color(%v)", a), s.k.Color(a), s.ref.know[a])
	}
}

// TestKnowledgeMatchesMapReference runs seeded scripts of duplicate and
// interleaved floods from both endpoints at generations 0–70, greedy
// coloring, own announcements, peer-table merges, rejoin re-announcements
// and snapshots against the dense table and the map-based reference, with
// the write-once check strict and tolerant: every output must match.
func TestKnowledgeMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		for _, tolerant := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/tolerant=%v", seed, tolerant), func(t *testing.T) {
				newKnowledgeScript(t, seed, tolerant).run(400)
			})
		}
	}
}

// TestKnowledgeObserveAllocs pins the flood path at zero allocations: a
// fresh flood (recorded and relayed, plus the endpoint rule's own flood
// for an incident arc) and a duplicate are both served from the node's
// dense table and its reused scratch buffer.
func TestKnowledgeObserveAllocs(t *testing.T) {
	g := graph.ConnectedGNM(64, 192, rand.New(rand.NewSource(5)))
	k := newKnowledge(7, g, 2)
	var fs []ColorAnnounce
	for gen := 0; gen < 64; gen++ {
		for _, key := range k.keys {
			a := keyArc(key)
			fs = append(fs, ColorAnnounce{Arc: a, Color: 1 + int(key%7), Origin: a.From, TTL: 2, Gen: gen})
		}
	}
	const runs = 1000
	if len(fs) < runs+1 {
		t.Fatalf("only %d distinct floods", len(fs))
	}
	i := 0
	if avg := testing.AllocsPerRun(runs, func() {
		k.observe(fs[i])
		i++
	}); avg != 0 {
		t.Errorf("observe of a fresh flood allocates %.1f times", avg)
	}
	if avg := testing.AllocsPerRun(runs, func() { k.observe(fs[0]) }); avg != 0 {
		t.Errorf("observe of a duplicate flood allocates %.1f times", avg)
	}
}

// TestKnowledgeOutsideViewPanics: an arc no flood can carry to the node is
// a protocol bug, not a table miss.
func TestKnowledgeOutsideViewPanics(t *testing.T) {
	g := graph.Path(6) // 0-1-2-3-4-5
	k := newKnowledge(0, g, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an arc 3 hops away")
		}
	}()
	k.observe(ColorAnnounce{Arc: graph.Arc{From: 3, To: 4}, Color: 1, Origin: 3, TTL: 2})
}
