package sim

import (
	"testing"

	"fdlsp/internal/graph"
)

func TestSyncTotalLossStopsFlood(t *testing.T) {
	g := graph.Path(4)
	heard := make([]bool, g.N())
	eng := NewSyncEngine(g, 1, func(id int) SyncNode {
		return stepFunc(func(env *SyncEnv, in []Message) bool {
			if env.ID == 0 && env.Round == 0 {
				env.Broadcast("token")
			}
			if len(in) > 0 {
				heard[env.ID] = true
			}
			return env.Round >= 1
		})
	})
	eng.Fault = &FaultPlan{Seed: 3, Loss: 1.0}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N(); v++ {
		if heard[v] {
			t.Errorf("node %d heard the flood through a fully lossy network", v)
		}
	}
	st := eng.Stats()
	if st.DroppedFault != st.Messages || st.Messages == 0 {
		t.Errorf("want every message dropped: %+v", st)
	}
}

func TestSyncDupDeliversTwice(t *testing.T) {
	g := graph.Path(2)
	heard := 0
	eng := NewSyncEngine(g, 1, func(id int) SyncNode {
		return stepFunc(func(env *SyncEnv, in []Message) bool {
			if env.ID == 0 && env.Round == 0 {
				env.Send(1, "x")
			}
			if env.ID == 1 {
				heard += len(in)
			}
			return true
		})
	})
	eng.Fault = &FaultPlan{Seed: 1, Dup: 1.0}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if heard != 2 {
		t.Errorf("heard %d copies, want 2 (original + duplicate)", heard)
	}
	if st := eng.Stats(); st.Duplicated != 1 || st.Messages != 1 {
		t.Errorf("stats = %+v, want 1 message 1 duplicate", st)
	}
}

func TestSyncCrashStopNodeExcluded(t *testing.T) {
	g := graph.Path(3)
	stepped := make([]int, g.N())
	eng := NewSyncEngine(g, 1, func(id int) SyncNode {
		return stepFunc(func(env *SyncEnv, in []Message) bool {
			stepped[env.ID]++
			if env.Round < 3 {
				env.Broadcast("beat")
			}
			return env.Round >= 2
		})
	})
	eng.Fault = &FaultPlan{Seed: 1, Crashes: []Crash{{Node: 1, At: 1}}}
	rec := &Recorder{}
	eng.Trace = rec
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if stepped[1] != 1 {
		t.Errorf("crashed node stepped %d times, want 1 (only round 0)", stepped[1])
	}
	if got := eng.Crashed(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Crashed() = %v, want [1]", got)
	}
	if n := rec.Count(EventNodeCrash); n != 1 {
		t.Errorf("crash events = %d, want 1", n)
	}
	if st := eng.Stats(); st.DroppedFault == 0 {
		t.Errorf("traffic into the crashed node should be dropped: %+v", st)
	}
}

func TestSyncCrashRestartResumes(t *testing.T) {
	g := graph.Path(2)
	stepped := 0
	eng := NewSyncEngine(g, 1, func(id int) SyncNode {
		return stepFunc(func(env *SyncEnv, in []Message) bool {
			if env.ID == 1 {
				stepped++
			}
			return env.Round >= 6
		})
	})
	eng.Fault = &FaultPlan{Seed: 1, Crashes: []Crash{{Node: 1, At: 2, RestartAt: 5}}}
	rec := &Recorder{}
	eng.Trace = rec
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Rounds 0..6 minus the outage [2,5) = rounds 0,1,5,6.
	if stepped != 4 {
		t.Errorf("restarting node stepped %d times, want 4", stepped)
	}
	if rec.Count(EventNodeCrash) != 1 || rec.Count(EventNodeRestart) != 1 {
		t.Errorf("want one crash and one restart event, got %d/%d",
			rec.Count(EventNodeCrash), rec.Count(EventNodeRestart))
	}
}

// faultyEcho floods "hello" and re-broadcasts on first hearing; bounded by
// virtual time so lossy runs always die out.
func faultyEcho(env *AsyncEnv) {
	if env.ID == 0 {
		env.Broadcast("hello")
	}
	heard := false
	for {
		m, ok := env.Recv()
		if !ok {
			return
		}
		if !heard && m.Payload == "hello" && env.Clock() < 50 {
			heard = true
			env.Broadcast("hello")
		}
	}
}

func TestAsyncFaultRunDeterministic(t *testing.T) {
	run := func() (Stats, []Event, []int) {
		g := graph.Path(8)
		rec := &Recorder{}
		eng := NewAsyncEngine(g, 7, func(id int) AsyncNode { return asyncFunc(faultyEcho) })
		eng.Trace = rec
		eng.Fault = &FaultPlan{Seed: 99, Loss: 0.3, Dup: 0.2, Reorder: 3,
			Crashes: []Crash{{Node: 3, At: 4}}}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Stats(), rec.Events(), eng.Crashed()
	}
	s1, e1, c1 := run()
	s2, e2, c2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("trace[%d] differs: %v vs %v", i, e1[i], e2[i])
		}
	}
	if len(c1) != len(c2) {
		t.Fatalf("crashed lists differ: %v vs %v", c1, c2)
	}
}

func TestAsyncCrashWindowDropsDeliveries(t *testing.T) {
	g := graph.Path(2)
	var heard []int64
	eng := NewAsyncEngine(g, 1, func(id int) AsyncNode {
		return asyncFunc(func(env *AsyncEnv) {
			if env.ID == 0 {
				// One message per time unit: pace with timers.
				for i := 0; i < 10; i++ {
					env.SetTimer(1, "tick")
					if _, ok := env.Recv(); !ok {
						return
					}
					env.Send(1, "data")
				}
				return
			}
			for {
				m, ok := env.Recv()
				if !ok {
					return
				}
				heard = append(heard, m.When)
			}
		})
	})
	eng.Fault = &FaultPlan{Seed: 5, Crashes: []Crash{{Node: 1, At: 4, RestartAt: 8}}}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, w := range heard {
		if w >= 4 && w < 8 {
			t.Errorf("delivery at %d inside crash window [4,8)", w)
		}
	}
	if len(heard) == 0 {
		t.Error("no deliveries at all")
	}
	if st := eng.Stats(); st.DroppedFault == 0 {
		t.Errorf("want crash-window drops counted: %+v", st)
	}
}
