package coloring

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fdlsp/internal/graph"
)

// normalize sorts violations and orders each pair for set comparison.
func normalize(viols []Violation) []Violation {
	out := make([]Violation, 0, len(viols))
	for _, v := range viols {
		if graph.CompareArcs(v.B, v.A) < 0 {
			v.A, v.B = v.B, v.A
		}
		out = append(out, v)
	}
	slices.SortFunc(out, func(a, b Violation) int {
		if c := graph.CompareArcs(a.A, b.A); c != 0 {
			return c
		}
		if c := graph.CompareArcs(a.B, b.B); c != 0 {
			return c
		}
		return a.Color - b.Color
	})
	keep := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			keep = append(keep, v)
		}
	}
	return keep
}

// idsOf returns the stable ids of arcs, which must be arcs of g.
func idsOf(g *graph.Graph, arcs []graph.Arc) []int32 {
	ids := make([]int32, len(arcs))
	for i, a := range arcs {
		id, ok := g.ArcIndex(a)
		if !ok {
			panic("idsOf: not an arc of g")
		}
		ids[i] = int32(id)
	}
	return ids
}

// audit runs AuditArcs on the dense form of as.
func audit(g *graph.Graph, as Assignment, arcs []graph.Arc) []Violation {
	return AuditArcs(g, SlotsOf(g, as), idsOf(g, arcs))
}

func TestAuditArcsMatchesVerifyOnFullArcSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		g := graph.GNM(24, 50, rng)
		as := Greedy(g, nil)
		// Corrupt the schedule: clobber some colors, erase others.
		for _, a := range g.ArcsView() {
			switch rng.Intn(6) {
			case 0:
				as[a] = 1 + rng.Intn(3)
			case 1:
				delete(as, a)
			}
		}
		want := normalize(Verify(g, as))
		got := normalize(audit(g, as, g.Arcs()))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: audit and verify disagree:\nverify: %v\naudit:  %v",
				trial, want, got)
		}
	}
}

func TestAuditArcsDirtySubsetFindsLocalViolations(t *testing.T) {
	g := graph.Path(4)
	// All-distinct colors: trivially valid, and jamming one pair introduces
	// exactly one clash.
	as := Assignment{}
	for i, arc := range g.Arcs() {
		as[arc] = i + 1
	}
	if len(Verify(g, as)) != 0 {
		t.Fatal("distinct-color schedule invalid")
	}
	a := graph.Arc{From: 0, To: 1}
	b := graph.Arc{From: 2, To: 3}
	as[a] = as[b] // introduce one clash
	viols := audit(g, as, []graph.Arc{a})
	if len(viols) != 1 {
		t.Fatalf("audit of the dirty arc found %v, want exactly the new pair", viols)
	}
	if v := viols[0]; v.A != a || v.B != b || v.Color != as[a] {
		t.Errorf("violation = %v, want {%v %v %d}", v, a, b, as[a])
	}
	// Auditing both members must not double-report the pair.
	viols = audit(g, as, []graph.Arc{a, b})
	if len(viols) != 1 {
		t.Errorf("pair double-reported: %v", viols)
	}
}

func TestUsableArcs(t *testing.T) {
	g := graph.Path(4)
	as := Assignment{}
	for i, arc := range g.Arcs() {
		as[arc] = i + 1
	}
	usable, total := UsableArcs(g, SlotsOf(g, as))
	if usable != total || total != 6 {
		t.Fatalf("clean schedule: usable=%d total=%d, want 6/6", usable, total)
	}
	if f := UsableFraction(g, SlotsOf(g, as)); f != 1 {
		t.Errorf("clean fraction = %v, want 1", f)
	}

	// Jam one pair: both members become unusable, the rest keep their slots.
	a := graph.Arc{From: 0, To: 1}
	b := graph.Arc{From: 2, To: 3}
	as[a] = as[b]
	usable, total = UsableArcs(g, SlotsOf(g, as))
	if usable != 4 || total != 6 {
		t.Errorf("jammed pair: usable=%d total=%d, want 4/6", usable, total)
	}

	// An uncolored arc has no slot at all.
	delete(as, a)
	usable, _ = UsableArcs(g, SlotsOf(g, as))
	if usable != 5 {
		t.Errorf("after uncoloring the jammed arc: usable=%d, want 5", usable)
	}

	empty := graph.New(3)
	if f := UsableFraction(empty, SlotsOf(empty, Assignment{})); f != 1 {
		t.Errorf("empty graph fraction = %v, want 1", f)
	}
}
