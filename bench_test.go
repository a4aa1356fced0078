package fdlsp_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation in reduced form (few trials per iteration so `go test -bench`
// stays tractable; cmd/experiments runs the full campaigns) and adds
// micro-benchmarks for the hot substrate paths plus ablations for the
// design choices discussed in DESIGN.md.
//
// Figure/table benchmarks report the measured quantities via b.ReportMetric
// (slots/frame, rounds, …), so `go test -bench . -benchmem` doubles as a
// compact reproduction report.

import (
	"fmt"
	"math/rand"
	"testing"

	"fdlsp"
	"fdlsp/internal/coloring"
	"fdlsp/internal/core"
	"fdlsp/internal/dmgc"
	"fdlsp/internal/exact"
	"fdlsp/internal/expt"
	"fdlsp/internal/graph"
	"fdlsp/internal/mis"
	"fdlsp/internal/sim"
)

// --- Table 1 ---------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunTable1(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Optimal), "opt_"+r.Name)
			}
		}
	}
}

// --- Figures 8–10: UDG slot counts ------------------------------------------

func benchUDGFigure(b *testing.B, side float64) {
	for i := 0; i < b.N; i++ {
		pts, err := expt.RunUDG(expt.UDGConfig{
			Side: side, Radius: 0.5,
			NodeCounts: []int{50, 100, 200, 300},
			Trials:     2, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := pts[len(pts)-1]
			b.ReportMetric(last.DistMIS.Mean(), "distMIS_slots_n300")
			b.ReportMetric(last.DFS.Mean(), "dfs_slots_n300")
			b.ReportMetric(last.DMGC.Mean(), "dmgc_slots_n300")
		}
	}
}

func BenchmarkFigure8(b *testing.B)  { benchUDGFigure(b, 15) }
func BenchmarkFigure9(b *testing.B)  { benchUDGFigure(b, 17) }
func BenchmarkFigure10(b *testing.B) { benchUDGFigure(b, 20) }

// --- Figures 11–12: general-graph slot counts -------------------------------

func benchGeneralFigure(b *testing.B, nodes int, edges []int) []*expt.Point {
	var last []*expt.Point
	for i := 0; i < b.N; i++ {
		pts, err := expt.RunGeneral(expt.GeneralConfig{
			Nodes: nodes, EdgeCounts: edges, Trials: 1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	return last
}

func BenchmarkFigure11(b *testing.B) {
	pts := benchGeneralFigure(b, 200, []int{300, 600, 1200})
	b.ReportMetric(pts[len(pts)-1].DFS.Mean(), "dfs_slots_m1200")
	b.ReportMetric(pts[len(pts)-1].DMGC.Mean(), "dmgc_slots_m1200")
}

func BenchmarkFigure12(b *testing.B) {
	pts := benchGeneralFigure(b, 500, []int{750, 1500})
	b.ReportMetric(pts[len(pts)-1].DFS.Mean(), "dfs_slots_m1500")
	b.ReportMetric(pts[len(pts)-1].DMGC.Mean(), "dmgc_slots_m1500")
}

// --- Figures 13–15: DistMIS communication rounds ----------------------------

func BenchmarkFigure13(b *testing.B) {
	// Rounds vs edges in UDG: fixed nodes, density swept via the plan side.
	var rounds float64
	for i := 0; i < b.N; i++ {
		for _, side := range []float64{20, 15, 10} {
			pts, err := expt.RunUDG(expt.UDGConfig{
				Side: side, Radius: 0.5, NodeCounts: []int{100},
				Trials: 2, Seed: int64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			rounds = pts[0].DistMISRounds.Mean()
		}
	}
	b.ReportMetric(rounds, "distMIS_rounds_dense")
}

func BenchmarkFigure14(b *testing.B) {
	pts := benchGeneralFigure(b, 500, []int{750, 1500})
	b.ReportMetric(pts[len(pts)-1].DistMISRounds.Mean(), "distMIS_rounds_m1500")
}

func BenchmarkFigure15(b *testing.B) {
	pts := benchGeneralFigure(b, 200, []int{300, 600, 1200})
	b.ReportMetric(pts[len(pts)-1].DistMISRounds.Mean(), "distMIS_rounds_m1200")
}

// --- Micro-benchmarks: substrate hot paths ----------------------------------

func benchGraph(n, m int, seed int64) *graph.Graph {
	return graph.ConnectedGNM(n, m, rand.New(rand.NewSource(seed)))
}

func BenchmarkConflictPredicate(b *testing.B) {
	g := benchGraph(200, 1000, 1)
	arcs := g.Arcs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := arcs[i%len(arcs)]
		c := arcs[(i*7+3)%len(arcs)]
		coloring.Conflict(g, a, c)
	}
}

func BenchmarkConflictingArcs(b *testing.B) {
	g := benchGraph(200, 1000, 1)
	arcs := g.Arcs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coloring.ConflictingArcs(g, arcs[i%len(arcs)])
	}
}

func BenchmarkGreedyColoring(b *testing.B) {
	g := benchGraph(200, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as := coloring.Greedy(g, nil)
		if len(as) == 0 {
			b.Fatal("empty coloring")
		}
	}
}

func BenchmarkVerifier(b *testing.B) {
	g := benchGraph(200, 1000, 1)
	as := coloring.Greedy(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !coloring.Valid(g, as) {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkLowerBound(b *testing.B) {
	g := benchGraph(200, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fdlsp.LowerBound(g)
	}
}

func BenchmarkMisraGries(b *testing.B) {
	g := benchGraph(300, 1500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dmgc.MisraGries(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncEngineMIS(b *testing.B) {
	g := benchGraph(400, 2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mis.Run(g, int64(i), mis.Luby()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncEngineDFS(b *testing.B) {
	g := benchGraph(200, 600, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DFS(g, core.DFSOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSolverSmallUDG(b *testing.B) {
	g, _ := fdlsp.RandomUDG(12, 4, 1.5, rand.New(rand.NewSource(4)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.MinSlots(g, exact.Options{})
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationMISStrategy compares the pluggable MIS value strategies
// inside DistMIS (Luby's randomized values vs deterministic IDs vs one-shot
// ranks) — a substitution DESIGN.md calls out.
func BenchmarkAblationMISStrategy(b *testing.B) {
	g := benchGraph(150, 450, 2)
	for _, d := range mis.Strategies() {
		b.Run(d.Name(), func(b *testing.B) {
			var slots, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := core.DistMIS(g, core.Options{Seed: int64(i), Drawer: d})
				if err != nil {
					b.Fatal(err)
				}
				slots = float64(res.Slots)
				rounds = float64(res.Stats.Rounds)
			}
			b.ReportMetric(slots, "slots")
			b.ReportMetric(rounds, "rounds")
		})
	}
}

// BenchmarkAblationVariant compares the paper's two DistMIS flavours: the
// GBG distance-3 secondary MIS (all incident arcs) against the general
// distance-2 secondary MIS (outgoing arcs only, Section 6's Δ-factor
// reduction).
func BenchmarkAblationVariant(b *testing.B) {
	g := benchGraph(150, 450, 2)
	for _, v := range []core.Variant{core.GBG, core.General} {
		b.Run(v.String(), func(b *testing.B) {
			var slots, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := core.DistMIS(g, core.Options{Seed: int64(i), Variant: v})
				if err != nil {
					b.Fatal(err)
				}
				slots = float64(res.Slots)
				rounds = float64(res.Stats.Rounds)
			}
			b.ReportMetric(slots, "slots")
			b.ReportMetric(rounds, "rounds")
		})
	}
}

// BenchmarkAblationDFSPolicy compares token-passing child policies; the
// paper prescribes max-degree-first.
func BenchmarkAblationDFSPolicy(b *testing.B) {
	g := benchGraph(150, 450, 2)
	for _, p := range []core.ChildPolicy{core.MaxDegree, core.MinID, core.RandomChild} {
		b.Run(p.String(), func(b *testing.B) {
			var slots float64
			for i := 0; i < b.N; i++ {
				res, err := core.DFS(g, core.DFSOptions{Seed: int64(i), Policy: p})
				if err != nil {
					b.Fatal(err)
				}
				slots = float64(res.Slots)
			}
			b.ReportMetric(slots, "slots")
		})
	}
}

// BenchmarkSyncEngineParallelism measures raw engine round throughput (the
// HPC-relevant metric: node steps run on a worker pool).
func BenchmarkSyncEngineParallelism(b *testing.B) {
	g := benchGraph(1000, 5000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewSyncEngine(g, int64(i), func(id int) sim.SyncNode {
			return roundCounter{}
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

type roundCounter struct{}

func (roundCounter) Step(env *sim.SyncEnv, inbox []sim.Message) bool {
	if env.Round < 10 {
		env.Broadcast(env.Round)
		return false
	}
	return true
}

// --- Extension benchmarks ----------------------------------------------------

// BenchmarkAblationRandomized pits the discarded randomized algorithm
// against DistMIS (the paper's §5 aside: longer schedules).
func BenchmarkAblationRandomized(b *testing.B) {
	g := benchGraph(150, 450, 2)
	b.Run("randomized", func(b *testing.B) {
		var slots float64
		for i := 0; i < b.N; i++ {
			res, err := core.Randomized(g, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			slots = float64(res.Slots)
		}
		b.ReportMetric(slots, "slots")
	})
	b.Run("distmis", func(b *testing.B) {
		var slots float64
		for i := 0; i < b.N; i++ {
			res, err := core.DistMIS(g, core.Options{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			slots = float64(res.Slots)
		}
		b.ReportMetric(slots, "slots")
	})
}

// BenchmarkDynamicRepair measures per-event incremental repair versus the
// full greedy rebuild (the paper's future-work fault tolerance).
func BenchmarkDynamicRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g, _ := fdlsp.RandomUDG(150, 12, 1.3, rng)
	up, err := fdlsp.NewIncremental(g, fdlsp.GreedySchedule(g))
	if err != nil {
		b.Fatal(err)
	}
	recolored := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(150), rng.Intn(150)
		if u == v {
			continue
		}
		kind := fdlsp.EventLinkUp
		if up.Graph().HasEdge(u, v) {
			kind = fdlsp.EventLinkDown
		}
		rep, err := up.Apply([]fdlsp.TopologyEvent{{Kind: kind, U: u, V: v}})
		if err != nil {
			b.Fatal(err)
		}
		recolored += len(rep.Recolored)
	}
	if up.Updates() > 0 {
		b.ReportMetric(float64(recolored)/float64(up.Updates()), "arcs/event")
	}
}

func BenchmarkDynamicRebuildBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g, _ := fdlsp.RandomUDG(150, 12, 1.3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fdlsp.GreedySchedule(g)
	}
}

func BenchmarkBroadcastScheduling(b *testing.B) {
	g := benchGraph(200, 600, 7)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fdlsp.BroadcastGreedy(g)
		}
	})
	b.Run("distributed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := fdlsp.BroadcastDistributed(g, int64(i), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTrafficConvergecast(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := fdlsp.ConnectedGNM(120, 360, rng)
	frame, err := fdlsp.BuildSchedule(g, fdlsp.GreedySchedule(g))
	if err != nil {
		b.Fatal(err)
	}
	flows := fdlsp.ConvergecastFlows(g, 0)
	b.ResetTimer()
	var latency float64
	for i := 0; i < b.N; i++ {
		res, err := fdlsp.SimulateTraffic(g, frame, flows, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		latency = res.AvgLatency
	}
	b.ReportMetric(latency, "avg_latency_slots")
}

func BenchmarkSINRCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g, pts := fdlsp.RandomUDG(200, 14, 1.3, rng)
	frame, err := fdlsp.BuildSchedule(g, fdlsp.GreedySchedule(g))
	if err != nil {
		b.Fatal(err)
	}
	params := fdlsp.DefaultSINRParams()
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = frame.SINRFeasibleFraction(pts, params)
	}
	b.ReportMetric(frac, "sinr_feasible_fraction")
}

// BenchmarkCVForestColoring measures the deterministic O(log* n) pipeline;
// the reported rounds barely move across two orders of magnitude of n.
func BenchmarkCVForestColoring(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		g := graph.RandomTree(n, rand.New(rand.NewSource(4)))
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				_, stats, err := fdlsp.CVColorForest(g)
				if err != nil {
					b.Fatal(err)
				}
				rounds = float64(stats.Rounds)
			}
			b.ReportMetric(rounds, "rounds")
		})
	}
}

// BenchmarkWeightedDFS measures demand-aware token scheduling.
func BenchmarkWeightedDFS(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := fdlsp.ConnectedGNM(100, 300, rng)
	d := fdlsp.LinkDemand{PerArc: map[fdlsp.Arc]int{}, Default: 1}
	for _, a := range g.Arcs() {
		d.PerArc[a] = 1 + rng.Intn(3)
	}
	b.ResetTimer()
	var slots float64
	for i := 0; i < b.N; i++ {
		as, _, err := fdlsp.WeightedDFS(g, d, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		slots = float64(as.Slots())
	}
	b.ReportMetric(slots, "slots")
}

// BenchmarkScheduleImprove measures the offline post-optimization pipeline
// and reports how many slots it reclaims from a DistMIS frame.
func BenchmarkScheduleImprove(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g, _ := fdlsp.RandomUDG(120, 10, 1.4, rng)
	res, err := fdlsp.DistMIS(g, fdlsp.DistMISOptions{Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var saved float64
	for i := 0; i < b.N; i++ {
		improved := fdlsp.ImproveSchedule(g, res.Assignment, 9, int64(i))
		saved = float64(res.Slots - improved.NumColors())
	}
	b.ReportMetric(saved, "slots_saved")
}

// BenchmarkEnergyAccounting measures the per-frame energy model.
func BenchmarkEnergyAccounting(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g, _ := fdlsp.RandomUDG(200, 14, 1.3, rng)
	frame, err := fdlsp.BuildSchedule(g, fdlsp.GreedySchedule(g))
	if err != nil {
		b.Fatal(err)
	}
	m := fdlsp.DefaultEnergyModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fdlsp.LinkEnergy(g, frame, m)
	}
}

// BenchmarkAblationDMGCPhase1 compares D-MGC's Vizing Δ+1 phase 1 against
// the fully distributed (2Δ-1) randomized edge coloring: slots vs rounds,
// quantifying why the baseline pays for the expensive construction.
func BenchmarkAblationDMGCPhase1(b *testing.B) {
	g := benchGraph(150, 450, 8)
	b.Run("vizing", func(b *testing.B) {
		var slots float64
		for i := 0; i < b.N; i++ {
			res, err := fdlsp.DMGC(g)
			if err != nil {
				b.Fatal(err)
			}
			slots = float64(res.Slots)
		}
		b.ReportMetric(slots, "slots")
	})
	b.Run("distributed-2d-1", func(b *testing.B) {
		var slots, rounds float64
		for i := 0; i < b.N; i++ {
			res, err := fdlsp.DMGCDistributed(g, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			slots = float64(res.Slots)
			rounds = float64(res.Stats.Rounds)
		}
		b.ReportMetric(slots, "slots")
		b.ReportMetric(rounds, "phase1_rounds")
	})
	b.Run("vizing-distributed", func(b *testing.B) {
		var slots, rounds float64
		for i := 0; i < b.N; i++ {
			res, err := fdlsp.DMGCVizingDistributed(g, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			slots = float64(res.Slots)
			rounds = float64(res.Stats.Rounds)
		}
		b.ReportMetric(slots, "slots")
		b.ReportMetric(rounds, "phase1_rounds")
	})
}
