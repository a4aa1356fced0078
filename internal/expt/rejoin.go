package expt

import (
	"fmt"
	"math/rand"

	"fdlsp/internal/core"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/geom"
	"fdlsp/internal/incr"
	"fdlsp/internal/sim"
)

// RejoinRepair measures what recovering from bounded node outages costs when
// the protocol repairs itself in-band (the crash-rejoin handshake: resync
// requests, replies and generation-tagged re-announcements, counted by
// Result.Rejoin.ResyncMsgs) versus the out-of-band baseline: compute the
// schedule fault-free, then replay the same crash script through incr, the
// maintenance path, as NodeFail/NodeJoin topology events (one batch each)
// and count the nodes its repairs touch (touchedNodes, the message proxy).
// Every crash in the script is a bounded outage, so in-protocol runs should
// reintegrate all of them (returned = crashes) and hand the maintenance path
// nothing — that is what the rejoin-aware CrashEvents bridge encodes.
func RejoinRepair(n int, side, radius float64, losses []float64, crashes, trials int, seed int64) (*Table, error) {
	t := NewTable("algo", "loss", "returned", "resync-msgs", "oob-touched", "oob-repaired-arcs", "in/oob")
	for _, algo := range []string{"distMIS", "dfs"} {
		for _, loss := range losses {
			var returned, resync, touched, repaired Sample
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(seed + int64(trial)*977))
				g, _ := geom.RandomUDG(n, side, radius, rng)
				plan := &sim.FaultPlan{Seed: seed + int64(trial), Loss: loss}
				used := map[int]bool{}
				for len(plan.Crashes) < crashes {
					v := rng.Intn(g.N())
					if used[v] {
						continue
					}
					used[v] = true
					at := int64(5 + rng.Intn(30))
					plan.Crashes = append(plan.Crashes,
						sim.Crash{Node: v, At: at, RestartAt: at + int64(15+rng.Intn(20))})
				}
				algoSeed := rng.Int63()
				run := func(fault *sim.FaultPlan) (*core.Result, error) {
					if algo == "distMIS" {
						return core.DistMIS(g, core.Options{Seed: algoSeed, Fault: fault})
					}
					return core.DFS(g, core.DFSOptions{Seed: algoSeed, Fault: fault})
				}
				res, err := run(plan)
				if err != nil {
					return nil, fmt.Errorf("rejoin repair %s loss=%g: %w", algo, loss, err)
				}
				base, err := run(nil)
				if err != nil {
					return nil, fmt.Errorf("rejoin repair %s baseline: %w", algo, err)
				}
				up, err := incr.New(g, base.Assignment)
				if err != nil {
					return nil, fmt.Errorf("rejoin repair %s baseline: %w", algo, err)
				}
				var oobTouched, oobRepaired int64
				for _, ev := range dynamic.CrashEvents(g, plan, nil) {
					rep, err := up.Apply([]dynamic.Event{ev})
					if err != nil {
						return nil, fmt.Errorf("rejoin repair %s replay %v: %w", algo, ev, err)
					}
					oobTouched += touchedNodes(up.Graph(), ev, rep)
					oobRepaired += int64(len(rep.Recolored))
				}
				returned.Add(float64(len(res.Rejoin.Returned)))
				resync.Add(float64(res.Rejoin.ResyncMsgs))
				touched.Add(float64(oobTouched))
				repaired.Add(float64(oobRepaired))
			}
			ratio := "-"
			if touched.Mean() > 0 {
				ratio = fmt.Sprintf("%.2fx", resync.Mean()/touched.Mean())
			}
			t.AddRow(algo, loss, returned.Mean(), resync.Mean(), touched.Mean(), repaired.Mean(), ratio)
		}
	}
	return t, nil
}
