package core

import (
	"fmt"
	"strings"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/sim"
)

// TestProbeObservesRepairInProgress runs DistMIS with a mid-run probe and
// checks the contract: probes fire at the configured period inside named
// phases, protocol-global time never goes backwards, the partial schedule is
// internally conflict-free at every observation (greedy local coloring never
// installs a clash in fault-free runs), and coloring progress is visible
// before the run ends — the protocol was observed, not stopped.
func TestProbeObservesRepairInProgress(t *testing.T) {
	g := faultUDG(t, 7, 24)
	type point struct {
		phase   string
		round   int64
		elapsed int64
		colored int
	}
	var pts []point
	maxColored := 0
	_, err := DistMIS(g, Options{Seed: 3, ProbeEvery: 2, Probe: func(p ProbePoint) {
		switch p.Phase {
		case "primary-mis", "secondary-mis", "coloring":
		default:
			t.Errorf("probe in unknown phase %q", p.Phase)
		}
		if p.Round%2 != 0 {
			t.Errorf("probe at round %d despite ProbeEvery=2", p.Round)
		}
		colored := p.ColoredArcs()
		if colored > maxColored {
			maxColored = colored
			as := p.PartialSchedule()
			if len(as) != colored {
				t.Errorf("PartialSchedule has %d arcs, ColoredArcs says %d", len(as), colored)
			}
			ids := make([]int32, 0, len(as))
			for a := range as {
				id, ok := g.ArcIndex(a)
				if !ok {
					t.Fatalf("partial schedule colors %v, not an arc", a)
				}
				ids = append(ids, int32(id))
			}
			if viols := coloring.AuditArcs(g, coloring.SlotsOf(g, as), ids); len(viols) != 0 {
				t.Errorf("partial schedule has violations mid-run: %v", viols[0])
			}
		}
		pts = append(pts, point{p.Phase, p.Round, p.Elapsed, colored})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("probe never fired")
	}
	last := int64(-1)
	partialSeen := false
	for _, p := range pts {
		global := p.elapsed + p.round
		if global < last {
			t.Fatalf("protocol-global time went backwards: %+v", pts)
		}
		last = global
		if p.colored > 0 && p.colored < 2*g.M() {
			partialSeen = true
		}
	}
	if !partialSeen {
		t.Error("no probe observed a partially built schedule")
	}
	if maxColored != 2*g.M() {
		t.Errorf("last observed coloring has %d arcs, want all %d", maxColored, 2*g.M())
	}
}

// TestProbeDeterministicAcrossGOMAXPROCS pins the probe stream to the seed:
// the full sequence of (phase, round, elapsed, colored) observations must be
// identical at any parallelism, including under a fault plan.
func TestProbeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := faultUDG(t, 9, 18)
	plan := &sim.FaultPlan{
		Seed: 5, Loss: 0.15, Dup: 0.05, Reorder: 2,
		Crashes: []sim.Crash{{Node: 4, At: 40, RestartAt: 500}},
	}
	run := func() string {
		var sb strings.Builder
		_, err := DistMIS(g, Options{Seed: 11, Fault: plan, ProbeEvery: 8,
			Probe: func(p ProbePoint) {
				fmt.Fprintf(&sb, "%s/%d/%d/%d\n", p.Phase, p.Round, p.Elapsed, p.ColoredArcs())
			}})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	var outs []string
	for _, procs := range []int{1, 8} {
		withGOMAXPROCS(procs, func() { outs = append(outs, run()) })
	}
	if outs[0] != outs[1] {
		t.Errorf("probe stream differs across GOMAXPROCS:\n%s\nvs\n%s", outs[0], outs[1])
	}
	if len(outs[0]) == 0 {
		t.Error("probe never fired under the fault plan")
	}
}
