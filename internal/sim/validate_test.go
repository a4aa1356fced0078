package sim

import (
	"strings"
	"testing"

	"fdlsp/internal/graph"
)

func TestFaultPlanValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		want string // substring of the error
	}{
		{"loss negative", FaultPlan{Loss: -0.1}, "loss"},
		{"loss above one", FaultPlan{Loss: 1.5}, "loss"},
		{"dup negative", FaultPlan{Dup: -0.5}, "dup"},
		{"dup above one", FaultPlan{Dup: 1.01}, "dup"},
		{"reorder negative", FaultPlan{Reorder: -3}, "reorder"},
		{"crash node negative",
			FaultPlan{Crashes: []Crash{{Node: -1, At: 1}}}, "crash node"},
		{"crash node too large",
			FaultPlan{Crashes: []Crash{{Node: 4, At: 1}}}, "crash node"},
		{"negative crash time",
			FaultPlan{Crashes: []Crash{{Node: 0, At: -2}}}, "negative time"},
		{"negative restart time",
			FaultPlan{Crashes: []Crash{{Node: 0, At: 1, RestartAt: -5}}}, "negative time"},
		{"restart before crash",
			FaultPlan{Crashes: []Crash{{Node: 0, At: 10, RestartAt: 5}}}, "before it crashes"},
		{"overlapping windows",
			FaultPlan{Crashes: []Crash{
				{Node: 2, At: 3, RestartAt: 9},
				{Node: 2, At: 7, RestartAt: 12},
			}}, "overlaps"},
		{"outage after crash-stop",
			FaultPlan{Crashes: []Crash{
				{Node: 1, At: 5},
				{Node: 1, At: 8, RestartAt: 10},
			}}, "crash-stops"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(4)
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.plan)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFaultPlanValidateOrderIndependent feeds each set of windows in both
// input orders: the verdict and the error must not depend on the order.
func TestFaultPlanValidateOrderIndependent(t *testing.T) {
	cases := []struct {
		name string
		wins []Crash
		want string // substring of the error; "" means accepted
	}{
		{"zero-length outage and crash-stop at one time",
			[]Crash{{Node: 1, At: 5, RestartAt: 5}, {Node: 1, At: 5}}, "crash-stops at 5"},
		{"outage and crash-stop at one time",
			[]Crash{{Node: 1, At: 5, RestartAt: 8}, {Node: 1, At: 5}}, "crash-stops at 5"},
		{"outage after crash-stop",
			[]Crash{{Node: 2, At: 8, RestartAt: 10}, {Node: 2, At: 4}}, "crash-stops at 4"},
		{"zero-length outage then window at one time",
			[]Crash{{Node: 0, At: 3, RestartAt: 7}, {Node: 0, At: 3, RestartAt: 3}}, ""},
		{"two windows from one time",
			[]Crash{{Node: 0, At: 3, RestartAt: 7}, {Node: 0, At: 3, RestartAt: 9}}, "overlaps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rev := []Crash{tc.wins[1], tc.wins[0]}
			for _, wins := range [][]Crash{tc.wins, rev} {
				err := (&FaultPlan{Crashes: wins}).Validate(4)
				switch {
				case tc.want == "" && err != nil:
					t.Errorf("Validate(%v) = %v, want nil", wins, err)
				case tc.want != "" && err == nil:
					t.Errorf("Validate(%v) accepted the plan", wins)
				case tc.want != "" && !strings.Contains(err.Error(), tc.want):
					t.Errorf("Validate(%v) = %q, want it to mention %q", wins, err, tc.want)
				}
			}
		})
	}
}

func TestFaultPlanValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		plan *FaultPlan
	}{
		{"nil plan", nil},
		{"empty plan", &FaultPlan{}},
		{"rates in range", &FaultPlan{Loss: 0.5, Dup: 0.99, Reorder: 7}},
		{"crash-stop", &FaultPlan{Crashes: []Crash{{Node: 3, At: 2}}}},
		{"bounded outage", &FaultPlan{Crashes: []Crash{{Node: 0, At: 2, RestartAt: 6}}}},
		{"zero-length outage", &FaultPlan{Crashes: []Crash{{Node: 0, At: 2, RestartAt: 2}}}},
		{"back-to-back windows", &FaultPlan{Crashes: []Crash{
			{Node: 1, At: 2, RestartAt: 5},
			{Node: 1, At: 5, RestartAt: 9},
		}}},
		{"final crash-stop after outage", &FaultPlan{Crashes: []Crash{
			{Node: 1, At: 2, RestartAt: 5},
			{Node: 1, At: 20},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.plan.Validate(4); err != nil {
				t.Errorf("Validate rejected a well-formed plan: %v", err)
			}
		})
	}
}

func TestEnginesRejectInvalidPlan(t *testing.T) {
	bad := &FaultPlan{Crashes: []Crash{{Node: 99, At: 1}}}
	g := graph.Path(2)

	sy := NewSyncEngine(g, 1, func(id int) SyncNode {
		return stepFunc(func(env *SyncEnv, in []Message) bool { return true })
	})
	sy.Fault = bad
	if err := sy.Run(); err == nil || !strings.Contains(err.Error(), "crash node") {
		t.Errorf("sync engine ran under an invalid plan (err=%v)", err)
	}

	as := NewAsyncEngine(g, 1, func(id int) AsyncNode {
		return asyncFunc(func(env *AsyncEnv) {})
	})
	as.Fault = bad
	if err := as.Run(); err == nil || !strings.Contains(err.Error(), "crash node") {
		t.Errorf("async engine ran under an invalid plan (err=%v)", err)
	}
}

// A zero-length outage (RestartAt == At) must deliver a NodeRestarted notice
// without the node ever being observed down or losing traffic.
func TestSyncZeroLengthOutage(t *testing.T) {
	g := graph.Path(2)
	stepped := 0
	restarts := 0
	heard := 0
	eng := NewSyncEngine(g, 1, func(id int) SyncNode {
		return stepFunc(func(env *SyncEnv, in []Message) bool {
			if env.ID == 0 {
				if env.Round < 5 {
					env.Send(1, "beat")
				}
				return env.Round >= 5
			}
			stepped++
			for _, m := range in {
				if _, ok := m.Payload.(NodeRestarted); ok {
					restarts++
				} else {
					heard++
				}
			}
			return env.Round >= 5
		})
	})
	eng.Fault = &FaultPlan{Seed: 9, Crashes: []Crash{{Node: 1, At: 3, RestartAt: 3}}}
	rec := &Recorder{}
	eng.Trace = rec
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if stepped != 6 {
		t.Errorf("node stepped %d rounds, want all 6 (never observed down)", stepped)
	}
	if restarts != 1 {
		t.Errorf("NodeRestarted notices = %d, want 1", restarts)
	}
	if heard != 5 {
		t.Errorf("heard %d beats, want 5 (zero-length outage loses no traffic)", heard)
	}
	if rec.Count(EventNodeCrash) != 1 || rec.Count(EventNodeRestart) != 1 {
		t.Errorf("want one crash and one restart event, got %d/%d",
			rec.Count(EventNodeCrash), rec.Count(EventNodeRestart))
	}
	if st := eng.Stats(); st.DroppedFault != 0 {
		t.Errorf("zero-length outage dropped traffic: %+v", st)
	}
	if got := eng.Crashed(); len(got) != 0 {
		t.Errorf("Crashed() = %v, want empty (the node came back)", got)
	}
}

func TestAsyncZeroLengthOutage(t *testing.T) {
	g := graph.Path(2)
	restarts := 0
	heard := 0
	eng := NewAsyncEngine(g, 1, func(id int) AsyncNode {
		return asyncFunc(func(env *AsyncEnv) {
			if env.ID == 0 {
				for i := 0; i < 8; i++ {
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
				if _, isRestart := m.Payload.(NodeRestarted); isRestart {
					restarts++
				} else {
					heard++
				}
			}
		})
	})
	eng.Fault = &FaultPlan{Seed: 5, Crashes: []Crash{{Node: 1, At: 4, RestartAt: 4}}}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if restarts != 1 {
		t.Errorf("NodeRestarted notices = %d, want 1", restarts)
	}
	if heard != 8 {
		t.Errorf("heard %d messages, want 8 (zero-length outage loses no traffic)", heard)
	}
	if st := eng.Stats(); st.DroppedFault != 0 {
		t.Errorf("zero-length outage dropped traffic: %+v", st)
	}
}

// Shifted must drop a fully-elapsed zero-length window instead of clamping it
// into a window that would re-crash the node at the start of every later run.
func TestShiftedDropsElapsedZeroLengthWindow(t *testing.T) {
	p := &FaultPlan{Crashes: []Crash{
		{Node: 0, At: 3, RestartAt: 3},  // fully in the past after offset 5
		{Node: 1, At: 2, RestartAt: 9},  // still open: clamps
		{Node: 2, At: 4},                // crash-stop: always kept
		{Node: 3, At: 8, RestartAt: 12}, // entirely in the future
	}}
	q := p.Shifted(5, 1)
	if len(q.Crashes) != 3 {
		t.Fatalf("shifted crashes = %+v, want the elapsed zero-length window dropped", q.Crashes)
	}
	for _, c := range q.Crashes {
		if c.Node == 0 {
			t.Fatalf("elapsed zero-length window survived the shift: %+v", c)
		}
	}
	if q.CrashedAt(1, 0) != true || q.CrashedAt(1, 4) != false {
		t.Errorf("clamped open window wrong: %+v", q.Crashes)
	}
	if !q.DeadBy(2, 0) {
		t.Errorf("crash-stop lost by shift: %+v", q.Crashes)
	}
}
