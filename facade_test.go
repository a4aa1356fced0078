package fdlsp_test

import (
	"math/rand"
	"strings"
	"testing"

	"fdlsp"
)

// TestFacadeExtensions exercises every extension entry point through the
// public API, pinning the surface a downstream user programs against.
func TestFacadeExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, pts := fdlsp.RandomQUDG(60, 8, 1.4, 0.7, 0.5, rng)

	t.Run("randomized", func(t *testing.T) {
		res, err := fdlsp.Randomized(g, 1)
		if err != nil || !fdlsp.Valid(g, res.Assignment) {
			t.Fatalf("err=%v valid=%v", err, err == nil && fdlsp.Valid(g, res.Assignment))
		}
	})

	t.Run("growth-bound", func(t *testing.T) {
		f := fdlsp.GrowthBound(g, 2)
		if len(f) != 3 || f[1] < 1 {
			t.Fatalf("growth bound %v", f)
		}
	})

	t.Run("dynamic", func(t *testing.T) {
		up, err := fdlsp.NewIncremental(g, fdlsp.GreedySchedule(g))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := up.Apply([]fdlsp.TopologyEvent{{Kind: fdlsp.EventNodeFail, U: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if !fdlsp.Valid(up.Graph(), up.Assignment()) {
			t.Fatal("invalid after repair")
		}
		if rep.Events != 1 || up.Updates() != 1 {
			t.Fatal("update not recorded")
		}
	})

	t.Run("broadcast", func(t *testing.T) {
		colors := fdlsp.BroadcastGreedy(g)
		if !fdlsp.BroadcastVerify(g, colors) {
			t.Fatal("greedy broadcast invalid")
		}
		dist, stats, err := fdlsp.BroadcastDistributed(g, 1, nil)
		if err != nil || !fdlsp.BroadcastVerify(g, dist) {
			t.Fatalf("distributed broadcast err=%v", err)
		}
		if g.M() > 0 && stats.Messages == 0 {
			t.Fatal("no messages")
		}
		if fdlsp.BroadcastLinkServiceSlots(g, colors) < fdlsp.BroadcastSlots(colors) {
			t.Fatal("link service below frame")
		}
	})

	t.Run("sinr-and-energy", func(t *testing.T) {
		frame, err := fdlsp.BuildSchedule(g, fdlsp.GreedySchedule(g))
		if err != nil {
			t.Fatal(err)
		}
		if f := frame.SINRFeasibleFraction(pts, fdlsp.DefaultSINRParams()); f < 0 || f > 1 {
			t.Fatalf("fraction %v", f)
		}
		rep := fdlsp.LinkEnergy(g, frame, fdlsp.DefaultEnergyModel())
		if rep.Total <= 0 && g.M() > 0 {
			t.Fatal("no energy accounted")
		}
		link, bcast, err := fdlsp.PerLinkServiceEnergy(g, frame, fdlsp.BroadcastGreedy(g), fdlsp.DefaultEnergyModel())
		if err != nil || link <= 0 || bcast <= 0 {
			t.Fatalf("service energy link=%v bcast=%v err=%v", link, bcast, err)
		}
	})

	t.Run("traffic", func(t *testing.T) {
		var cg *fdlsp.Graph
		for {
			cg = fdlsp.ConnectedGNM(30, 70, rng)
			if cg.Connected() {
				break
			}
		}
		frame, err := fdlsp.BuildSchedule(cg, fdlsp.GreedySchedule(cg))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fdlsp.SimulateTraffic(cg, frame, fdlsp.ConvergecastFlows(cg, 0), 10_000)
		if err != nil || res.Delivered != cg.N()-1 {
			t.Fatalf("delivered %d err=%v", res.Delivered, err)
		}
		if next := fdlsp.NextHops(cg, 0); next[0] != -1 {
			t.Fatal("sink next hop")
		}
	})

	t.Run("weighted", func(t *testing.T) {
		d := fdlsp.UniformDemand(2)
		as, err := fdlsp.WeightedGreedy(g, d)
		if err != nil || len(fdlsp.VerifyWeighted(g, d, as)) != 0 {
			t.Fatalf("weighted greedy err=%v", err)
		}
		if as.Slots() < fdlsp.WeightedLowerBound(g, d) && g.M() > 0 {
			t.Fatal("below demand bound")
		}
		das, _, err := fdlsp.WeightedDFS(g, d, 1)
		if err != nil || len(fdlsp.VerifyWeighted(g, d, das)) != 0 {
			t.Fatalf("weighted dfs err=%v", err)
		}
	})

	t.Run("optimize", func(t *testing.T) {
		as := fdlsp.GreedySchedule(g)
		comp := fdlsp.CompactSchedule(g, as)
		if comp.NumColors() > as.NumColors() || !fdlsp.Valid(g, comp) {
			t.Fatal("compaction regressed")
		}
		imp := fdlsp.ImproveSchedule(g, as, 4, 1)
		if imp.NumColors() > as.NumColors() || !fdlsp.Valid(g, imp) {
			t.Fatal("improve regressed")
		}
	})

	t.Run("cv", func(t *testing.T) {
		tree := fdlsp.RandomTree(60, rng)
		colors, stats, err := fdlsp.CVColorForest(tree)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tree.Edges() {
			if colors[e.U] == colors[e.V] {
				t.Fatal("improper CV coloring")
			}
		}
		if stats.Rounds > 40 {
			t.Fatalf("CV rounds %d not log*-ish", stats.Rounds)
		}
		inMIS, _, err := fdlsp.CVForestMIS(tree)
		if err != nil || len(inMIS) != tree.N() {
			t.Fatalf("forest MIS err=%v", err)
		}
		if fdlsp.LogStar(65536) != 4 {
			t.Fatal("log*")
		}
	})

	t.Run("viz", func(t *testing.T) {
		svg := fdlsp.RenderNetwork(g, pts, fdlsp.VizStyle{})
		if !strings.Contains(svg, "<svg") {
			t.Fatal("no svg")
		}
		frame, err := fdlsp.BuildSchedule(g, fdlsp.GreedySchedule(g))
		if err != nil {
			t.Fatal(err)
		}
		if frame.FrameLength > 0 {
			if _, err := fdlsp.RenderSlot(g, pts, frame, 1, fdlsp.VizStyle{}); err != nil {
				t.Fatal(err)
			}
			if _, err := fdlsp.RenderFrame(g, pts, frame, 2, fdlsp.VizStyle{}); err != nil {
				t.Fatal(err)
			}
		}
		if !strings.Contains(fdlsp.RenderSlotHistogram(frame), "<rect") {
			t.Fatal("histogram")
		}
	})

	t.Run("conformance", func(t *testing.T) {
		s := func(gg *fdlsp.Graph, seed int64) (fdlsp.Assignment, error) {
			return fdlsp.GreedySchedule(gg), nil
		}
		if fails := fdlsp.CheckConformance(s, fdlsp.ConformanceOptions{Seeds: []int64{1}}); len(fails) != 0 {
			t.Fatalf("greedy not conformant via facade: %v", fails[0])
		}
	})

	t.Run("delays", func(t *testing.T) {
		var cg *fdlsp.Graph
		for {
			cg = fdlsp.ConnectedGNM(25, 60, rng)
			if cg.Connected() {
				break
			}
		}
		for name, d := range map[string]fdlsp.DelayFn{
			"none": fdlsp.NoDelay(),
			"unif": fdlsp.UniformDelay(4),
			"tail": fdlsp.HeavyTailDelay(20),
			"link": fdlsp.SlowLinkDelay(10, func(u, v int) bool { return u == 0 }),
			"node": fdlsp.SlowNodeDelay(10, 1),
		} {
			res, err := fdlsp.DFS(cg, fdlsp.DFSOptions{Seed: 2, Delay: d})
			if err != nil || !fdlsp.Valid(cg, res.Assignment) {
				t.Fatalf("%s: err=%v", name, err)
			}
		}
	})
}
