package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/geom"
	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
	"fdlsp/internal/transport"
)

// faultUDG builds a connected random unit-disk graph for the fault suite.
func faultUDG(t *testing.T, seed int64, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _, ok := geom.RandomConnectedUDG(n, 10, 4, rng, 50)
	if !ok {
		t.Fatalf("seed %d: no connected UDG after 50 tries", seed)
	}
	return g
}

// faultPlanFor is the acceptance scenario: 20% loss, duplication, bounded
// reordering, and one crash-stop partway into the run.
func faultPlanFor(seed int64, crashNode int) *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed:    seed * 31,
		Loss:    0.2,
		Dup:     0.1,
		Reorder: 2,
		Crashes: []sim.Crash{{Node: crashNode, At: 40}},
	}
}

// faultSeeds is how many seeds the UnderFaults suites sweep: all five, or
// seed 1 alone under -short. The short sweep keeps the -race -short CI job
// inside go test's default timeout; the fault-soak job runs the full sweep.
func faultSeeds() int64 {
	if testing.Short() {
		return 1
	}
	return 5
}

// verifySurviving checks the schedule against the surviving subgraph and
// that no arc of a dead node slipped into it.
func verifySurviving(t *testing.T, g *graph.Graph, res *Result, label string) {
	t.Helper()
	surv := SurvivingGraph(g, res.Crashed)
	if vs := coloring.Verify(surv, res.Assignment); len(vs) > 0 {
		t.Fatalf("%s: surviving-subgraph verification failed: %v", label, vs[0])
	}
	dead := deadMask(g.N(), res.Crashed)
	for a, c := range res.Assignment {
		if c != coloring.None && !arcAlive(a, dead) {
			t.Fatalf("%s: dead-incident arc %v carries color %d", label, a, c)
		}
	}
}

// TestInvalidTransportOptions checks that both fault-path entry points
// reject out-of-range transport options with an error before any engine
// runs, instead of panicking inside a node factory.
func TestInvalidTransportOptions(t *testing.T) {
	g := graph.Path(4)
	plan := &sim.FaultPlan{Seed: 1, Loss: 0.1}
	for _, tc := range []struct {
		topt transport.Options
		want string
	}{
		{transport.Options{RTO: -2}, "negative RTO -2"},
		{transport.Options{MaxRetries: -5}, "invalid MaxRetries -5"},
	} {
		if _, err := DistMIS(g, Options{Seed: 1, Fault: plan, Transport: tc.topt}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DistMIS %+v: error %v, want one containing %q", tc.topt, err, tc.want)
		}
		if _, err := DFS(g, DFSOptions{Seed: 1, Fault: plan, Transport: tc.topt}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DFS %+v: error %v, want one containing %q", tc.topt, err, tc.want)
		}
	}
}

func TestDFSUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= faultSeeds(); seed++ {
		n := 24 + int(seed)*4
		g := faultUDG(t, seed, n)
		plan := faultPlanFor(seed, n/3)
		opts := DFSOptions{Seed: seed, Fault: plan}

		res, err := DFS(g, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Crashed) != 1 || res.Crashed[0] != n/3 {
			t.Fatalf("seed %d: Crashed = %v, want [%d]", seed, res.Crashed, n/3)
		}
		if res.Transport.Retries == 0 {
			t.Errorf("seed %d: expected retransmissions under 20%% loss", seed)
		}
		verifySurviving(t, g, res, "dfs")

		again, err := DFS(g, opts)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if fingerprint(res.Assignment, res.Slots) != fingerprint(again.Assignment, again.Slots) {
			t.Fatalf("seed %d: schedule not reproducible", seed)
		}
		if res.Transport.String() != again.Transport.String() {
			t.Fatalf("seed %d: transport counters differ: %v vs %v", seed, res.Transport, again.Transport)
		}
	}
}

// TestFaultDeterminismAcrossGOMAXPROCS pins the full faulty pipeline —
// fault script, transport retries, crash set, and resulting schedule — to
// the seed alone: runs at 1, 2, and 8 procs must agree byte for byte, and
// the recorded fault traces must be identical event for event.
func TestFaultDeterminismAcrossGOMAXPROCS(t *testing.T) {
	g := faultUDG(t, 3, 30)
	plan := faultPlanFor(3, 10)
	type outcome struct {
		print   string
		tport   string
		crashed string
		trace   string
	}
	run := func(algo string) outcome {
		t.Helper()
		rec := &sim.Recorder{}
		var res *Result
		var err error
		switch algo {
		case "distmis":
			res, err = DistMIS(g, Options{Seed: 3, Fault: plan, Trace: rec})
		default:
			res, err = DFS(g, DFSOptions{Seed: 3, Fault: plan, Trace: rec})
		}
		if err != nil {
			t.Fatal(err)
		}
		var tr []string
		for _, e := range rec.Events() {
			switch e.Kind {
			case sim.EventDropFault, sim.EventDup, sim.EventNodeCrash, sim.EventNodeRestart:
				tr = append(tr, e.String())
			}
		}
		return outcome{
			print:   fingerprint(res.Assignment, res.Slots),
			tport:   res.Transport.String(),
			crashed: fmt.Sprint(res.Crashed),
			trace:   strings.Join(tr, "\n"),
		}
	}
	for _, algo := range []string{"distmis", "dfs"} {
		var outs []outcome
		for _, procs := range []int{1, 2, 8} {
			withGOMAXPROCS(procs, func() {
				outs = append(outs, run(algo))
			})
		}
		for i := 1; i < len(outs); i++ {
			if outs[i] != outs[0] {
				t.Errorf("%s: outcome differs between GOMAXPROCS runs:\n%+v\nvs\n%+v", algo, outs[0], outs[i])
			}
		}
	}
}

func TestDistMISUnderFaults(t *testing.T) {
	for _, variant := range []Variant{GBG, General} {
		for seed := int64(1); seed <= faultSeeds(); seed++ {
			n := 24 + int(seed)*4
			g := faultUDG(t, seed, n)
			plan := faultPlanFor(seed, n/3)
			opts := Options{Variant: variant, Seed: seed, Fault: plan}
			label := variant.String()

			res, err := DistMIS(g, opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", label, seed, err)
			}
			if len(res.Crashed) != 1 || res.Crashed[0] != n/3 {
				t.Fatalf("%s seed %d: Crashed = %v, want [%d]", label, seed, res.Crashed, n/3)
			}
			if res.Transport.Retries == 0 {
				t.Errorf("%s seed %d: expected retransmissions under 20%% loss", label, seed)
			}
			verifySurviving(t, g, res, label)

			// Identical (seed, plan) must reproduce the run byte for byte:
			// schedule, crash set, and transport accounting.
			again, err := DistMIS(g, opts)
			if err != nil {
				t.Fatalf("%s seed %d rerun: %v", label, seed, err)
			}
			if fingerprint(res.Assignment, res.Slots) != fingerprint(again.Assignment, again.Slots) {
				t.Fatalf("%s seed %d: schedule not reproducible", label, seed)
			}
			if res.Transport.String() != again.Transport.String() {
				t.Fatalf("%s seed %d: transport counters differ: %v vs %v",
					label, seed, res.Transport, again.Transport)
			}
		}
	}
}
