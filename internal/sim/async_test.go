package sim

import (
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fdlsp/internal/graph"
)

// noLeak fails the test if goroutines started by fn outlive it: every node
// goroutine must have returned once AsyncEngine.Run does. A goroutine that
// has passed the baton on may still be unwinding, so the check polls
// briefly before failing.
func noLeak(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before the run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// eventLog records trace events; the baton serializes all emitters.
type eventLog struct{ evs []Event }

func (l *eventLog) Emit(e Event) { l.evs = append(l.evs, e) }

// recvAll is a node that records what it receives until shutdown.
func recvAll(got *[]string) func(env *AsyncEnv) {
	return func(env *AsyncEnv) {
		for {
			m, ok := env.Recv()
			if !ok {
				*got = append(*got, "shutdown")
				return
			}
			*got = append(*got, m.Payload.(string))
		}
	}
}

// TestAsyncRunTwiceFails: an engine's first Run consumes its queue and
// finishes its nodes, so a second Run must fail loudly instead of silently
// delivering nothing and reporting success.
func TestAsyncRunTwiceFails(t *testing.T) {
	g := graph.Path(3)
	noLeak(t, func() {
		eng := NewAsyncEngine(g, 1, func(id int) AsyncNode {
			return asyncFunc(func(env *AsyncEnv) {
				if env.ID == 0 {
					env.Send(1, "ping")
				}
				for {
					if _, ok := env.Recv(); !ok {
						return
					}
				}
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		first := eng.Stats()
		if first.Messages != 1 || first.DroppedDead != 0 {
			t.Fatalf("first run stats %+v, want one delivered message", first)
		}
		err := eng.Run()
		if err == nil || !strings.Contains(err.Error(), "called twice") {
			t.Fatalf("second Run returned %v, want a called-twice error", err)
		}
		if eng.Stats() != first {
			t.Errorf("second Run changed the stats: %+v, want %+v", eng.Stats(), first)
		}
	})
}

// TestAsyncSendToNonNeighborFailsRun mirrors the synchronous check: a send
// off the graph's edges panics inside the node, and the run fails with it.
func TestAsyncSendToNonNeighborFailsRun(t *testing.T) {
	g := graph.Path(3) // 0-1-2; 0 and 2 not adjacent
	noLeak(t, func() {
		eng := NewAsyncEngine(g, 1, func(id int) AsyncNode {
			return asyncFunc(func(env *AsyncEnv) {
				if env.ID == 0 {
					env.Send(2, "illegal")
				}
				for {
					if _, ok := env.Recv(); !ok {
						return
					}
				}
			})
		})
		err := eng.Run()
		if err == nil || !strings.Contains(err.Error(), "node 0 sending to non-neighbor 2") {
			t.Fatalf("Run returned %v, want the non-neighbor send to fail the run", err)
		}
	})
}

// TestAsyncTeardownSendDeliveredBeforeNextShutdown: at quiescence nodes are
// shut down in id order, and traffic a tearing-down node sends is delivered
// before the next node is shut down.
func TestAsyncTeardownSendDeliveredBeforeNextShutdown(t *testing.T) {
	g := graph.Path(3)
	got := make([][]string, g.N())
	tr := &eventLog{}
	noLeak(t, func() {
		eng := NewAsyncEngine(g, 1, func(id int) AsyncNode {
			if id == 0 {
				return asyncFunc(func(env *AsyncEnv) {
					if _, ok := env.Recv(); ok {
						t.Error("node 0 received a message")
					}
					env.Send(1, "bye")
				})
			}
			return asyncFunc(recvAll(&got[id]))
		})
		eng.Trace = tr
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Messages != 1 || st.DroppedDead != 0 {
			t.Errorf("stats %+v, want the teardown send delivered", st)
		}
	})
	if want := []string{"bye", "shutdown"}; strings.Join(got[1], ",") != strings.Join(want, ",") {
		t.Errorf("node 1 saw %v, want %v", got[1], want)
	}
	var order []string
	for _, e := range tr.evs {
		switch e.Kind {
		case EventDeliver:
			order = append(order, "deliver")
		case EventNodeDone:
			order = append(order, "done"+string(rune('0'+e.From)))
		}
	}
	if want := "done0,deliver,done1,done2"; strings.Join(order, ",") != want {
		t.Errorf("event order %v, want %s", order, want)
	}
}

// TestAsyncEventBudget: a run that never goes quiet is cut at MaxEvents
// deliveries, reports the overrun, and still shuts every node down.
func TestAsyncEventBudget(t *testing.T) {
	g := graph.Path(2)
	var shutdowns atomic.Int32
	noLeak(t, func() {
		eng := NewAsyncEngine(g, 1, func(id int) AsyncNode {
			return asyncFunc(func(env *AsyncEnv) {
				if env.ID == 0 {
					env.Send(1, 0)
				}
				for {
					m, ok := env.Recv()
					if !ok {
						shutdowns.Add(1)
						return
					}
					env.Send(m.From, m.Payload.(int)+1)
				}
			})
		})
		eng.MaxEvents = 50
		err := eng.Run()
		if err == nil || !strings.Contains(err.Error(), "exceeded 50 events") {
			t.Fatalf("Run returned %v, want a MaxEvents overrun", err)
		}
		// 50 deliveries each answered by one send, plus the opening send.
		if st := eng.Stats(); st.Messages != 51 {
			t.Errorf("messages = %d, want 51", st.Messages)
		}
	})
	if shutdowns.Load() != 2 {
		t.Errorf("%d nodes saw the shutdown, want 2", shutdowns.Load())
	}
}

// TestAsyncMidRunPanic: a node that panics while holding the baton fails
// the run, and the baton still reaches every other node's shutdown.
func TestAsyncMidRunPanic(t *testing.T) {
	g := graph.Cycle(4)
	var shutdowns atomic.Int32
	noLeak(t, func() {
		eng := NewAsyncEngine(g, 1, func(id int) AsyncNode {
			return asyncFunc(func(env *AsyncEnv) {
				if env.ID == 0 {
					env.Send(1, 0)
				}
				for {
					m, ok := env.Recv()
					if !ok {
						shutdowns.Add(1)
						return
					}
					k := m.Payload.(int)
					if k == 9 {
						panic("node bug")
					}
					env.Send(env.Neighbors[1], k+1)
				}
			})
		})
		err := eng.Run()
		if err == nil || !strings.Contains(err.Error(), "panicked: node bug") {
			t.Fatalf("Run returned %v, want the mid-run panic", err)
		}
	})
	if shutdowns.Load() != 3 {
		t.Errorf("%d nodes saw the shutdown, want the 3 survivors", shutdowns.Load())
	}
}

// TestAsyncSetTimer: a node's own timer is delivered to it in virtual-time
// order among its messages, as a message from itself that is neither
// counted nor traced as a send.
func TestAsyncSetTimer(t *testing.T) {
	g := graph.Path(2)
	var got []string
	var whens []int64
	tr := &eventLog{}
	noLeak(t, func() {
		eng := NewAsyncEngine(g, 1, func(id int) AsyncNode {
			if id == 1 {
				return asyncFunc(func(env *AsyncEnv) {
					for {
						if _, ok := env.Recv(); !ok {
							return
						}
						env.Send(0, "pong")
					}
				})
			}
			return asyncFunc(func(env *AsyncEnv) {
				env.SetTimer(5, "alarm")
				env.Send(1, "ping")
				for {
					m, ok := env.Recv()
					if !ok {
						return
					}
					got = append(got, m.Payload.(string))
					whens = append(whens, m.When)
					switch {
					case m.From == env.ID && len(got) < 6:
						env.SetTimer(1, "tick") // a chain of self-deliveries
					case m.From == env.ID:
						env.FinishAll()
					}
				}
			})
		})
		eng.Trace = tr
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Messages != 2 {
			t.Errorf("messages = %d, want 2 (timers are not messages)", st.Messages)
		}
	})
	want := "pong@2,alarm@5,tick@6,tick@7,tick@8,tick@9"
	var have []string
	for i := range got {
		have = append(have, got[i]+"@"+strconv.FormatInt(whens[i], 10))
	}
	if strings.Join(have, ",") != want {
		t.Errorf("node 0 received %v, want %s", have, want)
	}
	sends := 0
	for _, e := range tr.evs {
		if e.Kind == EventSend {
			sends++
		}
	}
	if sends != 2 {
		t.Errorf("%d send events traced, want 2", sends)
	}
}
