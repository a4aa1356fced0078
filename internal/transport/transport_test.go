package transport

import (
	"testing"

	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
)

// syncFlood is a BFS flood written against the transport surface: the
// source broadcasts in logical round 0, every node relays on first receipt
// and records the logical round it heard.
type syncFlood struct {
	source  bool
	heardAt int
	relayed bool
}

func (n *syncFlood) Step(env *SyncEnv, inbox []sim.Message) bool {
	if env.Round == 0 {
		n.heardAt = -1
		if n.source {
			n.heardAt = 0
			env.Broadcast("token")
			n.relayed = true
		}
		return n.relayed
	}
	for _, m := range inbox {
		if _, isDown := m.Payload.(PeerDown); isDown {
			continue
		}
		if n.heardAt < 0 {
			n.heardAt = env.Round
			if !n.relayed {
				env.Broadcast("token")
				n.relayed = true
			}
		}
	}
	return n.heardAt >= 0
}

func TestSyncReliableFloodUnderLoss(t *testing.T) {
	g := graph.Path(6)
	nodes := make([]*syncFlood, g.N())
	wraps := make([]*Sync, g.N())
	eng := sim.NewSyncEngine(g, 1, func(id int) sim.SyncNode {
		nodes[id] = &syncFlood{source: id == 0}
		wraps[id] = NewSync(nodes[id], &Options{})
		return wraps[id]
	})
	eng.Fault = &sim.FaultPlan{Seed: 11, Loss: 0.3, Dup: 0.1, Reorder: 2}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The synchronizer must preserve the one-hop-per-logical-round law even
	// with 30% loss: node v hears the flood in logical round v.
	for v, nd := range nodes {
		if nd.heardAt != v {
			t.Errorf("node %d heard at logical round %d, want %d", v, nd.heardAt, v)
		}
	}
	totals := Collect(wraps)
	if totals.Retries == 0 {
		t.Error("expected retransmissions under 30% loss")
	}
	if totals.GaveUp != 0 || totals.PeersDown != 0 {
		t.Errorf("no crashes, so nothing should give up: %v", totals)
	}
	t.Logf("physical rounds %d, transport %v", eng.Stats().Rounds, totals)
}

func TestSyncDirectModeIsPassthrough(t *testing.T) {
	g := graph.Path(6)
	nodes := make([]*syncFlood, g.N())
	eng := sim.NewSyncEngine(g, 1, func(id int) sim.SyncNode {
		nodes[id] = &syncFlood{source: id == 0}
		return NewSync(nodes[id], nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for v, nd := range nodes {
		if nd.heardAt != v {
			t.Errorf("node %d heard at round %d, want %d", v, nd.heardAt, v)
		}
	}
	// Direct mode adds no wire overhead: still exactly 2m messages.
	if st := eng.Stats(); st.Messages != int64(2*g.M()) {
		t.Errorf("messages = %d, want %d", st.Messages, 2*g.M())
	}
}

func TestSyncGiveUpOnCrashedPeer(t *testing.T) {
	g := graph.Path(3)
	var sawDown []int
	protos := make([]*Sync, g.N())
	eng := sim.NewSyncEngine(g, 1, func(id int) sim.SyncNode {
		protos[id] = NewSync(syncStepFunc(func(env *SyncEnv, inbox []sim.Message) bool {
			if env.Round == 0 {
				env.Broadcast("hi")
			}
			for _, m := range inbox {
				if pd, ok := m.Payload.(PeerDown); ok && env.ID == 1 {
					sawDown = append(sawDown, pd.Peer)
				}
			}
			return true
		}), &Options{RTO: 2, MaxRetries: 2})
		return protos[id]
	})
	eng.Fault = &sim.FaultPlan{Seed: 4, Crashes: []sim.Crash{{Node: 2, At: 0}}}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sawDown) != 1 || sawDown[0] != 2 {
		t.Errorf("node 1 PeerDown notices = %v, want [2]", sawDown)
	}
	if !protos[1].env.Down(2) {
		t.Error("Down(2) should report true at node 1 after give-up")
	}
	totals := Collect(protos)
	if totals.GaveUp == 0 || totals.PeersDown == 0 {
		t.Errorf("want give-up accounting, got %v", totals)
	}
}

type syncStepFunc func(*SyncEnv, []sim.Message) bool

func (f syncStepFunc) Step(env *SyncEnv, in []sim.Message) bool { return f(env, in) }

// asyncEchoOnce: node 0 sends one "ping" per neighbor; receivers reply
// "pong"; node 0 finishes the run after hearing every live neighbor.
type asyncEchoOnce struct {
	pongs *int
}

func (p *asyncEchoOnce) Run(env *AsyncEnv) {
	if env.ID == 0 {
		env.Broadcast("ping")
		want := len(env.Neighbors)
		for {
			m, ok := env.Recv()
			if !ok {
				return
			}
			switch m.Payload.(type) {
			case PeerDown:
				want--
			default:
				*p.pongs++
			}
			if *p.pongs >= want {
				env.FinishAll()
				return
			}
		}
	}
	for {
		m, ok := env.Recv()
		if !ok {
			return
		}
		if m.Payload == "ping" {
			env.Send(m.From, "pong")
		}
	}
}

func TestAsyncReliableEchoUnderLoss(t *testing.T) {
	g := graph.Star(5)
	pongs := 0
	wraps := make([]*Async, g.N())
	eng := sim.NewAsyncEngine(g, 2, func(id int) sim.AsyncNode {
		wraps[id] = NewAsync(&asyncEchoOnce{pongs: &pongs}, &Options{})
		return wraps[id]
	})
	eng.Fault = &sim.FaultPlan{Seed: 21, Loss: 0.4, Dup: 0.2, Reorder: 3}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if pongs != g.N()-1 {
		t.Errorf("heard %d pongs, want %d (exactly-once delivery)", pongs, g.N()-1)
	}
	totals := Collect(wraps)
	if totals.Retries == 0 {
		t.Error("expected retransmissions under 40% loss")
	}
	t.Logf("transport %v", totals)
}

func TestAsyncExactlyOnceUnderDup(t *testing.T) {
	g := graph.Path(2)
	delivered := 0
	eng := sim.NewAsyncEngine(g, 3, func(id int) sim.AsyncNode {
		return NewAsync(asyncRunFunc(func(env *AsyncEnv) {
			if env.ID == 0 {
				for i := 0; i < 20; i++ {
					env.Send(1, i)
				}
				return
			}
			for {
				if _, ok := env.Recv(); !ok {
					return
				}
				delivered++
			}
		}), &Options{})
	})
	eng.Fault = &sim.FaultPlan{Seed: 8, Dup: 1.0, Reorder: 4}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 20 {
		t.Errorf("delivered %d payloads, want exactly 20 despite 100%% duplication", delivered)
	}
}

func TestAsyncGiveUpOnCrashedPeer(t *testing.T) {
	g := graph.Path(2)
	var notice *PeerDown
	eng := sim.NewAsyncEngine(g, 5, func(id int) sim.AsyncNode {
		return NewAsync(asyncRunFunc(func(env *AsyncEnv) {
			if env.ID != 0 {
				for {
					if _, ok := env.Recv(); !ok {
						return
					}
				}
			}
			env.Send(1, "anyone there?")
			for {
				m, ok := env.Recv()
				if !ok {
					return
				}
				if pd, isDown := m.Payload.(PeerDown); isDown {
					notice = &pd
					env.FinishAll()
					return
				}
			}
		}), &Options{RTO: 2, MaxRetries: 3})
	})
	eng.Fault = &sim.FaultPlan{Seed: 9, Crashes: []sim.Crash{{Node: 1, At: 0}}}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if notice == nil || notice.Peer != 1 {
		t.Fatalf("want PeerDown{1} notice at node 0, got %v", notice)
	}
}

type asyncRunFunc func(*AsyncEnv)

func (f asyncRunFunc) Run(env *AsyncEnv) { f(env) }
