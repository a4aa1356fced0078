package fdlsp_test

import (
	"fmt"
	"math/rand"

	"fdlsp"
)

// ExampleDistMIS schedules a small field with the synchronous MIS-based
// algorithm and verifies the result.
func ExampleDistMIS() {
	g, _ := fdlsp.RandomUDG(40, 6, 1.5, rand.New(rand.NewSource(7)))
	res, err := fdlsp.DistMIS(g, fdlsp.DistMISOptions{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid:", fdlsp.Valid(g, res.Assignment))
	fmt.Println("within bounds:", res.Slots >= fdlsp.LowerBound(g) && res.Slots <= fdlsp.UpperBound(g))
	// Output:
	// valid: true
	// within bounds: true
}

// ExampleDFS runs the asynchronous token-passing algorithm.
func ExampleDFS() {
	g := fdlsp.ConnectedGNM(30, 70, rand.New(rand.NewSource(3)))
	res, err := fdlsp.DFS(g, fdlsp.DFSOptions{Seed: 3})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid:", fdlsp.Valid(g, res.Assignment))
	fmt.Println("linear rounds:", res.Stats.Rounds < int64(20*g.N()))
	// Output:
	// valid: true
	// linear rounds: true
}

// ExampleGreedySchedule shows the deterministic centralized reference and
// the frame it induces.
func ExampleGreedySchedule() {
	g := fdlsp.Path(3) // 0-1-2: four directed links
	as := fdlsp.GreedySchedule(g)
	frame, _ := fdlsp.BuildSchedule(g, as)
	fmt.Println("slots:", frame.FrameLength)
	fmt.Println("radio collisions:", len(frame.RadioCheck(g)))
	// Output:
	// slots: 4
	// radio collisions: 0
}

// ExampleOptimalSlots proves a tiny instance optimal.
func ExampleOptimalSlots() {
	_, slots, proved := fdlsp.OptimalSlots(fdlsp.Complete(4))
	fmt.Println(slots, proved)
	// Output: 12 true
}

// ExampleConflict demonstrates the hidden terminal rule on a path.
func ExampleConflict() {
	g := fdlsp.Path(4) // 0-1-2-3
	// 2 transmitting disturbs 1 while it receives from 0:
	fmt.Println(fdlsp.Conflict(g, fdlsp.Arc{From: 0, To: 1}, fdlsp.Arc{From: 2, To: 3}))
	// Two transmitters side by side are fine:
	fmt.Println(fdlsp.Conflict(g, fdlsp.Arc{From: 1, To: 0}, fdlsp.Arc{From: 2, To: 3}))
	// Output:
	// true
	// false
}

// ExampleNewIncremental repairs a schedule after a link appears.
func ExampleNewIncremental() {
	g := fdlsp.Path(4)
	up, _ := fdlsp.NewIncremental(g, fdlsp.GreedySchedule(g))
	_, _ = up.Apply([]fdlsp.TopologyEvent{{Kind: fdlsp.EventLinkUp, U: 0, V: 3}})
	fmt.Println("valid after repair:", fdlsp.Valid(up.Graph(), up.Assignment()))
	// Output: valid after repair: true
}

// ExampleSimulateTraffic drains a convergecast over the frame.
func ExampleSimulateTraffic() {
	g := fdlsp.Path(5)
	frame, _ := fdlsp.BuildSchedule(g, fdlsp.GreedySchedule(g))
	res, _ := fdlsp.SimulateTraffic(g, frame, fdlsp.ConvergecastFlows(g, 0), 1000)
	fmt.Println("delivered:", res.Delivered)
	// Output: delivered: 4
}
