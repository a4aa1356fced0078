// Churn: a living sensor network. Nodes move, fail and join; links appear
// and disappear. The schedule is repaired locally after every event (the
// paper's future-work direction) instead of being rebuilt, and the example
// reports how much cheaper repair is. It also demonstrates the extension
// layers: the quasi-UDG network model, the SINR physical check, and the
// broadcast-scheduling comparison from the paper's introduction.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fdlsp"
)

func main() {
	rng := rand.New(rand.NewSource(33))

	// A quasi unit disk network: links certain within 0.7·1.5, impossible
	// beyond 1.5, coin-flipped in between — rougher than a UDG, closer to
	// real radios.
	g, pts := fdlsp.RandomQUDG(100, 12, 1.5, 0.7, 0.5, rng)
	fmt.Printf("QUDG field: %d sensors, %d links, Δ=%d\n", g.N(), g.M(), g.MaxDegree())
	fb := fdlsp.GrowthBound(g, 3)
	fmt.Printf("empirical growth bound f(1..3) = %v (polynomially bounded → GBG assumption holds)\n", fb[1:])

	// Initial schedule.
	res, err := fdlsp.DistMIS(g, fdlsp.DistMISOptions{Seed: 33})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial schedule: %d slots\n", res.Slots)

	// Physical-model check of the graph-based schedule.
	frame, err := fdlsp.BuildSchedule(g, res.Assignment)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SINR-feasible receptions: %.1f%% (graph model vs physical model gap)\n",
		100*frame.SINRFeasibleFraction(pts, fdlsp.DefaultSINRParams()))

	// Broadcast-scheduling comparison (paper, Section 1).
	bc := fdlsp.BroadcastGreedy(g)
	fmt.Printf("broadcast schedule: %d slots; serving every directed link once needs %d broadcast slots vs %d link slots\n",
		fdlsp.BroadcastSlots(bc), fdlsp.BroadcastLinkServiceSlots(g, bc), res.Slots)

	// Now the network lives: 300 random churn events with local repair.
	up, err := fdlsp.NewIncremental(g, res.Assignment)
	if err != nil {
		log.Fatal(err)
	}
	recolored := 0
	for step := 0; step < 300; step++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			continue
		}
		kind := fdlsp.EventLinkUp
		if up.Graph().HasEdge(u, v) {
			kind = fdlsp.EventLinkDown
		}
		rep, err := up.Apply([]fdlsp.TopologyEvent{{Kind: kind, U: u, V: v}})
		if err != nil {
			log.Fatal(err)
		}
		recolored += len(rep.Recolored)
		if !fdlsp.Valid(up.Graph(), up.Assignment()) {
			log.Fatalf("schedule invalid after event %d", step)
		}
	}
	events := up.Updates()
	fmt.Printf("\nafter %d churn events:\n", events)
	fmt.Printf("  schedule still valid, frame drifted to %d slots\n", up.Slots())
	fmt.Printf("  full rebuild would recolor %d arcs per event (frame %d)\n",
		2*up.Graph().M(), fdlsp.GreedySchedule(up.Graph()).NumColors())
	perEvent := float64(recolored) / float64(events)
	fmt.Printf("  incremental repair recolors %.2f arcs/event — %.0fx cheaper\n",
		perEvent, float64(2*up.Graph().M())/perEvent)

	// A sensor dies; the schedule survives.
	if _, err := up.Apply([]fdlsp.TopologyEvent{{Kind: fdlsp.EventNodeFail, U: 0}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsensor 0 failed: schedule valid=%v, %d slots\n",
		fdlsp.Valid(up.Graph(), up.Assignment()), up.Slots())
}
