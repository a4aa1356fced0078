package expt

import (
	"fmt"
	"math/rand"

	"fdlsp/internal/bounds"
	"fdlsp/internal/broadcast"
	"fdlsp/internal/coloring"
	"fdlsp/internal/core"
	"fdlsp/internal/dmgc"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/energy"
	"fdlsp/internal/geom"
	"fdlsp/internal/graph"
	"fdlsp/internal/incr"
	"fdlsp/internal/sched"
)

// The extension experiments quantify the repository's additions beyond the
// paper's figures: the randomized algorithm the paper reports discarding,
// the broadcast-versus-link-scheduling comparison its introduction argues
// qualitatively, and the incremental-repair cost for its future-work
// fault-tolerance direction.

// RandomizedComparison runs DistMIS and the randomized algorithm on the
// same instances and reports average slots and rounds for both — checking
// the paper's stated reason for rejecting the randomized approach ("longer
// schedule with speed that is close to the independent set based
// algorithm").
func RandomizedComparison(nodeCounts []int, side, radius float64, trials int, seed int64) (*Table, error) {
	t := NewTable("nodes", "avg-deg", "distMIS slots", "rand slots", "distMIS rounds", "rand rounds")
	for _, n := range nodeCounts {
		var deg, mSlots, rSlots, mRounds, rRounds Sample
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(seed + int64(n)*131 + int64(trial)))
			g, _ := geom.RandomUDG(n, side, radius, rng)
			deg.Add(g.AvgDegree())
			m, err := core.DistMIS(g, core.Options{Seed: rng.Int63()})
			if err != nil {
				return nil, fmt.Errorf("randomized comparison distMIS: %w", err)
			}
			r, err := core.Randomized(g, rng.Int63())
			if err != nil {
				return nil, fmt.Errorf("randomized comparison randomized: %w", err)
			}
			mSlots.Add(float64(m.Slots))
			rSlots.Add(float64(r.Slots))
			mRounds.Add(float64(m.Stats.Rounds))
			rRounds.Add(float64(r.Stats.Rounds))
		}
		t.AddRow(n, deg.Mean(), mSlots.Mean(), rSlots.Mean(), mRounds.Mean(), rRounds.Mean())
	}
	return t, nil
}

// BroadcastComparison reproduces the introduction's argument with numbers:
// the slots needed to serve every directed link once under broadcast
// scheduling (frame · Δ) versus one FDLSP frame.
func BroadcastComparison(nodeCounts []int, side, radius float64, trials int, seed int64) (*Table, error) {
	t := NewTable("nodes", "avg-deg", "broadcast frame", "broadcast link-service", "FDLSP frame (distMIS)")
	for _, n := range nodeCounts {
		var deg, bFrame, bService, lFrame Sample
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(seed + int64(n)*137 + int64(trial)))
			g, _ := geom.RandomUDG(n, side, radius, rng)
			deg.Add(g.AvgDegree())
			colors := broadcast.Greedy(g)
			if ok, bad := broadcast.Verify(g, colors); !ok {
				return nil, fmt.Errorf("broadcast comparison: invalid schedule %v", bad)
			}
			m, err := core.DistMIS(g, core.Options{Seed: rng.Int63()})
			if err != nil {
				return nil, fmt.Errorf("broadcast comparison distMIS: %w", err)
			}
			bFrame.Add(float64(broadcast.Slots(colors)))
			bService.Add(float64(broadcast.LinkServiceSlots(g, colors)))
			lFrame.Add(float64(m.Slots))
		}
		t.AddRow(n, deg.Mean(), bFrame.Mean(), bService.Mean(), lFrame.Mean())
	}
	return t, nil
}

// ChurnExperiment measures incremental repair against full rebuilds: random
// link churn on a UDG, each event applied as its own incr batch, reporting
// per-event repair cost, frame drift, and the arcs a rebuild would recolor.
func ChurnExperiment(n int, side, radius float64, events, trials int, seed int64) (*Table, error) {
	t := NewTable("trial", "events", "repair arcs/event", "touched nodes/event", "frame start", "frame end", "distinct end", "rebuild frame", "rebuild arcs")
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)*149))
		g, _ := geom.RandomUDG(n, side, radius, rng)
		up, err := incr.New(g, coloring.Greedy(g, nil))
		if err != nil {
			return nil, err
		}
		start := up.Slots()
		var repaired, touched int64
		for applied := 0; applied < events; {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			kind := dynamic.LinkUp
			if up.Graph().HasEdge(u, v) {
				kind = dynamic.LinkDown
			}
			ev := dynamic.Event{Kind: kind, U: u, V: v}
			rep, err := up.Apply([]dynamic.Event{ev})
			if err != nil {
				return nil, err
			}
			applied++
			if viols := coloring.Verify(up.Graph(), up.Assignment()); len(viols) != 0 {
				return nil, fmt.Errorf("churn: invalid after %d events: %v", applied, viols[0])
			}
			repaired += int64(len(rep.Recolored))
			touched += touchedNodes(up.Graph(), ev, rep)
		}
		// Incremental repair can retire colors without compacting the frame:
		// "distinct end" < "frame end" quantifies the idle slots a rebuild
		// would reclaim.
		t.AddRow(trial,
			events,
			float64(repaired)/float64(events),
			float64(touched)/float64(events),
			start, up.Slots(), up.Assignment().DistinctColors(),
			coloring.Greedy(up.Graph(), nil).NumColors(), 2*up.Graph().M())
	}
	return t, nil
}

// touchedNodes is the repair's message proxy for one applied event: the
// nodes that must exchange or update distance-2 color knowledge. Every link
// the event added or dropped, and every pre-existing arc the repair
// recolored, contributes |{u,v} ∪ N₂(u) ∪ N₂(v)| on the post-event graph g.
// NodeMove is not handled: no experiment sends it.
func touchedNodes(g *graph.Graph, ev dynamic.Event, rep *incr.Report) int64 {
	type link struct{ u, v int }
	key := func(u, v int) link { return link{min(u, v), max(u, v)} }
	ball := func(l link) int64 {
		seen := map[int]struct{}{l.u: {}, l.v: {}}
		for _, x := range []int{l.u, l.v} {
			for _, w := range g.Within(x, 2) {
				seen[w] = struct{}{}
			}
		}
		return int64(len(seen))
	}
	added := map[link]bool{}
	switch ev.Kind {
	case dynamic.LinkUp:
		added[key(ev.U, ev.V)] = true
	case dynamic.NodeJoin:
		for _, p := range ev.Peers {
			added[key(ev.U, p)] = true
		}
	}
	var total int64
	for l := range added {
		total += ball(l)
	}
	for _, d := range rep.Dropped {
		if d.From < d.To {
			total += ball(link{d.From, d.To})
		}
	}
	for _, r := range rep.Recolored {
		if !added[key(r.From, r.To)] {
			total += ball(key(r.From, r.To))
		}
	}
	return total
}

// QUDGComparison schedules the same placements under UDG and quasi-UDG
// connectivity, showing the algorithms are model-agnostic (the paper's GBG
// claim) — slot counts track density, not the specific geometric model.
func QUDGComparison(n int, side, radius float64, trials int, seed int64) (*Table, error) {
	t := NewTable("model", "edges", "avg-deg", "distMIS slots", "DFS slots", "lower", "upper")
	type cfg struct {
		name  string
		alpha float64
		p     float64
	}
	for _, c := range []cfg{{"udg", 1, 0}, {"qudg a=0.75 p=0.5", 0.75, 0.5}, {"qudg a=0.5 p=0.3", 0.5, 0.3}} {
		var edges, deg, mis, dfs, lo, hi Sample
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(seed + int64(trial)*151))
			pts := geom.RandomPoints(n, side, rng)
			g := geom.QuasiUnitDisk(pts, radius, c.alpha, c.p, rng)
			edges.Add(float64(g.M()))
			deg.Add(g.AvgDegree())
			m, err := core.DistMIS(g, core.Options{Seed: rng.Int63()})
			if err != nil {
				return nil, err
			}
			d, err := core.DFS(g, core.DFSOptions{Seed: rng.Int63()})
			if err != nil {
				return nil, err
			}
			mis.Add(float64(m.Slots))
			dfs.Add(float64(d.Slots))
			lo.Add(float64(lowerOf(g)))
			hi.Add(float64(upperOf(g)))
		}
		t.AddRow(c.name, edges.Mean(), deg.Mean(), mis.Mean(), dfs.Mean(), lo.Mean(), hi.Mean())
	}
	return t, nil
}

func lowerOf(g *graph.Graph) int { return bounds.LowerBound(g) }
func upperOf(g *graph.Graph) int { return bounds.UpperBound(g) }

// EnergyComparison quantifies the paper's §1 power argument: per-node
// energy per frame and per full link service under link versus broadcast
// scheduling, using typical low-power-radio cost ratios.
func EnergyComparison(nodeCounts []int, side, radius float64, trials int, seed int64) (*Table, error) {
	t := NewTable("nodes", "avg-deg", "link energy/frame", "bcast energy/frame", "link energy/service", "bcast energy/service")
	model := energy.DefaultModel()
	for _, n := range nodeCounts {
		var deg, lFrame, bFrame, lServ, bServ Sample
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(seed + int64(n)*157 + int64(trial)))
			g, _ := geom.RandomUDG(n, side, radius, rng)
			deg.Add(g.AvgDegree())
			s, err := sched.Build(g, coloring.Greedy(g, nil))
			if err != nil {
				return nil, err
			}
			colors := broadcast.Greedy(g)
			lr := energy.LinkSchedule(g, s, model)
			br, err := energy.BroadcastSchedule(g, colors, model)
			if err != nil {
				return nil, err
			}
			link, bcast, err := energy.PerLinkServiceEnergy(g, s, colors, model)
			if err != nil {
				return nil, err
			}
			lFrame.Add(lr.Mean)
			bFrame.Add(br.Mean)
			lServ.Add(link)
			bServ.Add(bcast)
		}
		t.AddRow(n, deg.Mean(), lFrame.Mean(), bFrame.Mean(), lServ.Mean(), bServ.Mean())
	}
	return t, nil
}

// DMGCPhaseOneAblation compares the three phase-1 strategies for D-MGC on
// the same instances: centralized Misra–Gries (output-faithful), the fully
// distributed (2Δ-1) randomized coloring, and the protocol-faithful
// distributed Vizing with locks — slots and measured rounds.
func DMGCPhaseOneAblation(nodes, edges, trials int, seed int64) (*Table, error) {
	t := NewTable("variant", "slots", "phase-1 rounds", "messages")
	var mgSlots, dSlots, dRounds, dMsgs, vSlots, vRounds, vMsgs Sample
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)*163))
		g := graph.ConnectedGNM(nodes, edges, rng)
		a, err := dmgc.Schedule(g)
		if err != nil {
			return nil, err
		}
		b, err := dmgc.ScheduleDistributed(g, int64(trial))
		if err != nil {
			return nil, err
		}
		c, err := dmgc.ScheduleVizingDistributed(g, int64(trial))
		if err != nil {
			return nil, err
		}
		mgSlots.Add(float64(a.Slots))
		dSlots.Add(float64(b.Slots))
		dRounds.Add(float64(b.Stats.Rounds))
		dMsgs.Add(float64(b.Stats.Messages))
		vSlots.Add(float64(c.Slots))
		vRounds.Add(float64(c.Stats.Rounds))
		vMsgs.Add(float64(c.Stats.Messages))
	}
	t.AddRow("misra-gries (centralized)", mgSlots.Mean(), "-", "-")
	t.AddRow("distributed 2Δ-1", dSlots.Mean(), dRounds.Mean(), dMsgs.Mean())
	t.AddRow("distributed vizing+locks", vSlots.Mean(), vRounds.Mean(), vMsgs.Mean())
	return t, nil
}
