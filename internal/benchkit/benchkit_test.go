package benchkit

import (
	"encoding/json"
	"testing"
)

// TestShortSuite is the smoke run CI executes: the short grid must produce
// a fully populated, deterministic-cost report that round-trips as JSON.
func TestShortSuite(t *testing.T) {
	specs := DefaultSpecs(true)
	if len(specs) != 8 {
		t.Fatalf("short grid has %d specs, want 8", len(specs))
	}
	rep, err := Run("smoke", specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(rep.Results), len(specs))
	}
	if rep.MinIterations != MinIterations || rep.MinBenchNs != MinBenchNs {
		t.Errorf("iteration floors not recorded: %+v", rep)
	}
	for _, m := range rep.Results {
		if m.Iterations < MinIterations {
			t.Errorf("%s: only %d iterations, floor is %d", m.Name, m.Iterations, MinIterations)
		}
		if m.NsPerOp <= 0 || m.AllocsPerOp <= 0 {
			t.Errorf("%s: timing figures not populated: %+v", m.Name, m)
		}
		if m.Slots <= 0 || m.Rounds <= 0 || m.Messages <= 0 {
			t.Errorf("%s: schedule cost not populated: %+v", m.Name, m)
		}
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Suite != "smoke" || len(back.Results) != len(rep.Results) {
		t.Fatal("round-tripped report lost fields")
	}
}

// TestCostDeterministic pins that the schedule-cost half of a measurement
// is identical across repeated runs — the timing varies, the protocol
// accounting must not.
func TestCostDeterministic(t *testing.T) {
	spec := Spec{Name: "sync-n16", Engine: "sync", Nodes: 16, Edges: 48, Seed: 1}
	a, err := measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Slots != b.Slots || a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("cost drifted between runs: %+v vs %+v", a, b)
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	if _, err := measure(Spec{Name: "bad", Engine: "warp", Nodes: 8, Edges: 24, Seed: 1}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestFullGrid pins the committed baseline's shape: both engines at the
// common sizes, the parallel sync engine's large-scale rows, and the
// incremental session's scale sweep and both engines under faults.
func TestFullGrid(t *testing.T) {
	specs := DefaultSpecs(false)
	if len(specs) != 17 {
		t.Fatalf("full grid has %d specs, want 17", len(specs))
	}
	want := map[string]bool{
		"sync-n64": true, "sync-n256": true, "sync-n1024": true, "sync-n4096": true,
		"sync-n16384": true, "sync-n65536": true,
		"async-n64": true, "async-n256": true, "async-n1024": true, "async-n4096": true,
		"incr-n256": true, "incr-n1024": true, "incr-n4096": true,
		"sync-fault-n64": true, "sync-fault-n256": true,
		"async-fault-n64": true, "async-fault-n256": true,
	}
	for _, s := range specs {
		if !want[s.Name] {
			t.Errorf("unexpected spec %q", s.Name)
		}
		if s.Edges != 3*s.Nodes {
			t.Errorf("%s: edges %d, want 3n = %d", s.Name, s.Edges, 3*s.Nodes)
		}
	}
}

// TestCompareGate exercises the baseline gate: allocation growth beyond the
// tolerance and deterministic-cost drift are fatal, wall-clock movement is
// advisory, and specs missing from either side are skipped.
func TestCompareGate(t *testing.T) {
	m := func(name string, allocs, bytes, ns int64, slots int) Measurement {
		return Measurement{
			Spec:        Spec{Name: name},
			AllocsPerOp: allocs, BytesPerOp: bytes, NsPerOp: ns,
			Slots: slots, Rounds: 10, Messages: 100,
		}
	}
	base := &Report{Results: []Measurement{
		m("a", 1000, 1_000_000, 500, 7),
		m("b", 1000, 1_000_000, 500, 7),
		m("c", 1000, 1_000_000, 500, 7),
		m("base-only", 1, 1, 1, 1),
	}}
	cur := &Report{Results: []Measurement{
		m("a", 1200, 1_000_000, 2000, 7), // +20% allocs ok, ns spike advisory
		m("b", 1300, 1_000_000, 500, 7),  // +30% allocs: fatal
		m("c", 1000, 1_000_000, 500, 8),  // cost drift: fatal
		m("cur-only", 1, 1, 1, 1),
	}}
	cmp := Compare(base, cur, 0.25)
	if len(cmp.Fatal) != 2 {
		t.Fatalf("fatal findings = %v, want 2 (alloc regression + cost drift)", cmp.Fatal)
	}
	if len(cmp.Advisory) != 1 {
		t.Fatalf("advisory findings = %v, want 1 (ns spike)", cmp.Advisory)
	}
	if clean := Compare(base, base, 0.25); len(clean.Fatal) != 0 || len(clean.Advisory) != 0 {
		t.Fatalf("self-comparison not clean: %+v", clean)
	}
}

// TestCompareWallClockGate exercises the wall-clock rule: on specs of
// WallClockMinNodes nodes or more, ns_per_op growth beyond
// WallClockMaxGrowth turns fatal (on top of the usual advisory), while
// small specs only ever report wall clock as advisory no matter how large
// the spike.
func TestCompareWallClockGate(t *testing.T) {
	m := func(name string, nodes int, ns int64) Measurement {
		return Measurement{
			Spec:        Spec{Name: name, Nodes: nodes},
			AllocsPerOp: 1000, BytesPerOp: 1_000_000, NsPerOp: ns,
			Slots: 7, Rounds: 10, Messages: 100,
		}
	}
	base := &Report{Results: []Measurement{
		m("sync-n64", 64, 1_000),
		m("sync-n4096", WallClockMinNodes, 1_000_000),
		m("sync-n65536", 65536, 10_000_000),
	}}

	// A 10x spike on a small spec stays advisory; the same spike at n=4096
	// crosses the generous fatal bar.
	cur := &Report{Results: []Measurement{
		m("sync-n64", 64, 10_000),
		m("sync-n4096", WallClockMinNodes, 10_000_000),
		m("sync-n65536", 65536, 10_000_000),
	}}
	cmp := Compare(base, cur, 0.25)
	if len(cmp.Fatal) != 1 {
		t.Fatalf("fatal findings = %v, want exactly the n=4096 wall-clock regression", cmp.Fatal)
	}
	if len(cmp.Advisory) != 2 {
		t.Fatalf("advisory findings = %v, want the two ns spikes", cmp.Advisory)
	}

	// Growth inside the tolerance band is silent on the fatal side even at
	// the largest scale.
	within := &Report{Results: []Measurement{
		m("sync-n64", 64, 1_100),
		m("sync-n4096", WallClockMinNodes, 2_500_000),
		m("sync-n65536", 65536, 25_000_000),
	}}
	cmp = Compare(base, within, 0.25)
	if len(cmp.Fatal) != 0 {
		t.Fatalf("within-band wall clock flagged fatal: %v", cmp.Fatal)
	}
}

// TestIncrUpdateCostIndependentOfScale pins the incremental engine's
// locality contract through the deterministic cost column: the conflict rows
// a single-link update rewrites (Messages) are bounded by the flipped edge's
// 2-hop neighborhood — a function of local degree, not of instance size — so
// growing the instance 16x must not grow the per-update patch footprint
// anywhere near proportionally.
func TestIncrUpdateCostIndependentOfScale(t *testing.T) {
	small, err := measure(Spec{Name: "incr-n256", Engine: "incr", Nodes: 256, Edges: 768, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := measure(Spec{Name: "incr-n4096", Engine: "incr", Nodes: 4096, Edges: 12288, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.Messages <= 0 || large.Messages <= 0 {
		t.Fatalf("patched-row columns not populated: %d / %d", small.Messages, large.Messages)
	}
	// 16x nodes and arcs; the patched-row count may wobble with the local
	// degrees around the flipped edge but must stay in the same ballpark.
	if large.Messages > 8*small.Messages {
		t.Fatalf("per-update patch cost scaled with the graph: %d rows at n=4096 vs %d at n=256",
			large.Messages, small.Messages)
	}
	// And it must be a vanishing fraction of the whole conflict cache.
	if total := int64(2 * large.Edges); large.Messages*10 > total {
		t.Fatalf("patch rewrote %d of %d rows — not a local update", large.Messages, total)
	}
}
