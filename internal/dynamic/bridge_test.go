package dynamic_test

import (
	"testing"

	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
)

func TestCrashEventsReplayKeepsScheduleValid(t *testing.T) {
	g := graph.Grid(4, 4)
	up := mustUpdater(t, g)
	plan := &sim.FaultPlan{Crashes: []sim.Crash{
		{Node: 5, At: 10},                // crash-stop
		{Node: 9, At: 12, RestartAt: 30}, // outage with recovery
		{Node: 10, At: 12},               // crash-stop while 9 is down
	}}
	events := dynamic.CrashEvents(g, plan, nil)
	want := []string{"node-fail{5->[]}", "node-fail{9->[]}", "node-fail{10->[]}", "node-join{9->[8 13]}"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %d of them", events, len(want))
	}
	for i, ev := range events {
		if ev.String() != want[i] {
			t.Errorf("event %d = %v, want %v", i, ev, want[i])
		}
	}
	// Node 9's rejoin must exclude dead neighbors 5 and 10 — the surviving
	// peer set at restart time.
	for _, u := range events[3].Peers {
		if u == 5 || u == 10 {
			t.Errorf("restart rejoins dead neighbor %d", u)
		}
	}
	for _, ev := range events {
		apply(t, up, ev)
		checkValid(t, up, "after "+ev.String())
	}
}

func TestCrashEventsSkipsProtocolRejoinedNodes(t *testing.T) {
	g := graph.Grid(4, 4)
	plan := &sim.FaultPlan{Crashes: []sim.Crash{
		{Node: 5, At: 10},                // crash-stop
		{Node: 9, At: 12, RestartAt: 30}, // outage the protocol repaired
		{Node: 6, At: 20, RestartAt: 40}, // outage repaired out-of-band
	}}
	events := dynamic.CrashEvents(g, plan, []int{9})
	// Node 9's fail/join pair is gone: the protocol already restored its
	// links and colors in-band. Node 5 crash-stopped and node 6's restart
	// was not reintegrated, so both still reach the maintenance layer — and
	// node 6's join sees 9 as alive (its links never left the schedule).
	want := []string{"node-fail{5->[]}", "node-fail{6->[]}", "node-join{6->[2 7 10]}"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %d of them", events, len(want))
	}
	for i, ev := range events {
		if ev.String() != want[i] {
			t.Errorf("event %d = %v, want %v", i, ev, want[i])
		}
	}
	// A crash-stop listed as rejoined is impossible; the bridge must ignore
	// the claim rather than drop the NodeFail.
	events = dynamic.CrashEvents(g, plan, []int{5, 9})
	if len(events) != len(want) || events[0].String() != want[0] {
		t.Errorf("crash-stop in rejoined list altered events: %v", events)
	}
}

func TestCrashEventsZeroLengthOutageEmitsNothing(t *testing.T) {
	g := graph.Grid(3, 3)
	// Node 4 crashes and rejoins inside tick 7: the engines never observe it
	// down, so the maintenance layer must not see a Fail (the historical bug
	// emitted Fail-only, permanently dropping the node's links). Node 2's
	// ordinary outage must be unaffected.
	plan := &sim.FaultPlan{Crashes: []sim.Crash{
		{Node: 4, At: 7, RestartAt: 7},
		{Node: 2, At: 5, RestartAt: 9},
	}}
	events := dynamic.CrashEvents(g, plan, nil)
	want := []string{"node-fail{2->[]}", "node-join{2->[1 5]}"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i, ev := range events {
		if ev.String() != want[i] {
			t.Errorf("event %d = %v, want %v", i, ev, want[i])
		}
	}
}

func TestCrashEventsBackToBackWindowsNetTransitions(t *testing.T) {
	g := graph.Grid(3, 3)
	// Node 4's restart at 5 coincides with its next crash at 5: the node is
	// continuously down over [2,9), so the bridge must emit one Fail at 2 and
	// one Join at 9 — not a spurious Join/Fail pair at 5 that would leave the
	// maintained schedule disagreeing with the engine about the node's state.
	plan := &sim.FaultPlan{Crashes: []sim.Crash{
		{Node: 4, At: 2, RestartAt: 5},
		{Node: 4, At: 5, RestartAt: 9},
	}}
	if err := plan.Validate(g.N()); err != nil {
		t.Fatal(err)
	}
	events := dynamic.CrashEvents(g, plan, nil)
	want := []string{"node-fail{4->[]}", "node-join{4->[1 3 5 7]}"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i, ev := range events {
		if ev.String() != want[i] {
			t.Errorf("event %d = %v, want %v", i, ev, want[i])
		}
	}
	// Replaying through the maintenance path must keep the schedule valid.
	up := mustUpdater(t, g)
	for _, ev := range events {
		apply(t, up, ev)
	}
	checkValid(t, up, "after replay")
}

func TestMoveEventsDiffsLiveNeighborhoods(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	up := mustUpdater(t, g)
	// Node 3 moves from the end of the path to sit next to 0 and 1.
	prevN := map[int][]int{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
	nextN := map[int][]int{0: {1, 3}, 1: {0, 2, 3}, 2: {1}, 3: {0, 1}}
	at := func(m map[int][]int) func(int) []int {
		return func(v int) []int { return m[v] }
	}
	events := dynamic.MoveEvents(4, at(prevN), at(nextN), nil)
	// Every node's neighborhood changed, so each emits one NodeMove; replay
	// performs each link change exactly once (Apply rejects double adds).
	if len(events) != 4 {
		t.Fatalf("events = %v, want 4 NodeMoves", events)
	}
	for _, ev := range events {
		if ev.Kind != dynamic.NodeMove {
			t.Fatalf("unexpected event %v", ev)
		}
		apply(t, up, ev)
	}
	checkValid(t, up, "after move replay")
	if !up.Graph().HasEdge(0, 3) || !up.Graph().HasEdge(1, 3) || up.Graph().HasEdge(2, 3) {
		t.Errorf("topology after move wrong: %v", up.Graph())
	}

	// A crashed node moving emits nothing, and its links are masked out of
	// every peer set.
	live := []bool{true, true, true, false}
	events = dynamic.MoveEvents(4, at(prevN), at(nextN), live)
	for _, ev := range events {
		if ev.U == 3 {
			t.Errorf("down node emitted %v", ev)
		}
		for _, u := range ev.Peers {
			if u == 3 {
				t.Errorf("down node appears in peer set of %v", ev)
			}
		}
	}
}
