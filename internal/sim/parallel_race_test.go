package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fdlsp/internal/graph"
	"fdlsp/internal/obs"
)

// collectTracer records every event, unbounded, for byte-level trace
// comparison across worker counts. The engine only emits from its sequential
// section, but the mutex keeps the tracer honest under -race if that ever
// changes.
type collectTracer struct {
	mu     sync.Mutex
	events []Event
}

func (t *collectTracer) Emit(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// gossipNode exercises every engine surface the parallel shards touch: it
// draws from the per-node RNG each round, folds its inbox (including the
// From:-1 NodeRestarted notices crash windows deliver) into a running hash,
// and keeps gossiping until its round budget runs out.
type gossipNode struct {
	rounds int
	hash   uint64
}

func (n *gossipNode) Step(env *SyncEnv, inbox []Message) bool {
	for _, m := range inbox {
		n.hash = n.hash*0x100000001B3 + uint64(m.From+1)
		switch p := m.Payload.(type) {
		case int64:
			n.hash ^= uint64(p)
		case NodeRestarted:
			n.hash ^= 0xDEAD<<32 | uint64(p.Restarts)
		}
	}
	if env.Round < n.rounds {
		env.Broadcast(env.Rand.Int63n(1 << 30))
	}
	return env.Round >= n.rounds
}

// runSignature captures everything a run produces that the determinism
// contract pins: stats, per-node protocol state, fault churn, the trace,
// and the metrics snapshot.
type runSignature struct {
	Stats    Stats
	Hashes   []uint64
	Crashed  []int
	Returned []int
	Events   []Event
	Metrics  string
}

func runGossip(t *testing.T, g *graph.Graph, seed int64, workers int, plan *FaultPlan, rounds int) runSignature {
	t.Helper()
	nodes := make([]*gossipNode, g.N())
	eng := NewSyncEngine(g, seed, func(id int) SyncNode {
		nodes[id] = &gossipNode{rounds: rounds}
		return nodes[id]
	})
	eng.Workers = workers
	eng.Fault = plan
	tr := &collectTracer{}
	eng.Trace = tr
	reg := obs.NewRegistry()
	eng.Metrics = reg
	if err := eng.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	sig := runSignature{
		Stats:    eng.Stats(),
		Hashes:   make([]uint64, g.N()),
		Crashed:  eng.Crashed(),
		Returned: eng.Returned(),
		Events:   tr.events,
		Metrics:  reg.Text(),
	}
	for v, nd := range nodes {
		sig.Hashes[v] = nd.hash
	}
	return sig
}

// TestParallelEngineFaultDeterminism runs the same faulty workload at
// worker counts 1 (the serial special case), 2, 3 and 8 and demands
// byte-identical signatures: stats, node state, crash/rejoin churn, the
// full trace, and the metrics snapshot. Under -race this doubles as the
// data-race gate for the pool's step phase interleaving with the fault
// machinery.
func TestParallelEngineFaultDeterminism(t *testing.T) {
	g := graph.GNM(64, 180, rand.New(rand.NewSource(11)))
	plan := &FaultPlan{
		Seed:    77,
		Loss:    0.12,
		Dup:     0.08,
		Reorder: 3,
		Crashes: []Crash{
			{Node: 5, At: 4, RestartAt: 9},
			{Node: 20, At: 6},
			{Node: 41, At: 2, RestartAt: 3},
		},
	}
	base := runGossip(t, g, 9001, 1, plan, 25)
	if base.Stats.DroppedFault == 0 || base.Stats.Duplicated == 0 {
		t.Fatalf("fault plan did not bite: %+v", base.Stats)
	}
	for _, w := range []int{2, 3, 8} {
		got := runGossip(t, g, 9001, w, plan, 25)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: run signature diverged from serial\nserial:   %+v\nparallel: %+v", w, base.Stats, got.Stats)
		}
	}
}

// TestParallelEngineFaultFreeDeterminism pins the fault-free fast path,
// where delivery itself shards by destination and the trace is emitted
// concurrently with the workers' inbox refill.
func TestParallelEngineFaultFreeDeterminism(t *testing.T) {
	g := graph.GNM(96, 300, rand.New(rand.NewSource(12)))
	base := runGossip(t, g, 4242, 1, nil, 20)
	if base.Stats.Messages == 0 {
		t.Fatal("no traffic generated")
	}
	for _, w := range []int{2, 3, 8} {
		got := runGossip(t, g, 4242, w, nil, 20)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: fault-free run signature diverged from serial", w)
		}
	}
}

// TestParallelEngineChurnStream drives the parallel engine through
// consecutive FaultStream windows — the sustained-churn regime internal/soak
// runs in — and checks each epoch's signature against the serial engine.
// Reset carries the pool across epochs, so this also covers pool
// start/stop/restart and Reset's parallel re-seeding under -race.
func TestParallelEngineChurnStream(t *testing.T) {
	g := graph.GNM(48, 120, rand.New(rand.NewSource(13)))
	stream := &FaultStream{
		Seed:      2025,
		Loss:      0.1,
		Dup:       0.05,
		Reorder:   2,
		CrashRate: 0.15,
		MinOutage: 1,
		MaxOutage: 4,
	}
	run := func(workers int) []runSignature {
		var sigs []runSignature
		for epoch := int64(0); epoch < 3; epoch++ {
			plan := stream.Plan(epoch, g.N(), nil, 40)
			sigs = append(sigs, runGossip(t, g, 333+epoch, workers, plan, 18))
		}
		return sigs
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: churn-stream signatures diverged from serial", w)
		}
	}
}

// TestParallelEngineWorkerPanic checks a panicking node on a pooled worker
// surfaces as a run error (not a crash or a deadlocked barrier), and that
// the engine remains usable afterwards.
func TestParallelEngineWorkerPanic(t *testing.T) {
	g := graph.Star(16)
	boom := true
	factory := func(id int) SyncNode {
		return stepFunc(func(env *SyncEnv, in []Message) bool {
			if boom && env.ID == 7 {
				panic("node bug")
			}
			return true
		})
	}
	eng := NewSyncEngine(g, 1, factory)
	eng.Workers = 4
	if err := eng.Run(); err == nil {
		t.Fatal("expected the pooled engine to surface the node panic as an error")
	}
	boom = false
	eng.Reset(2, factory)
	eng.Workers = 4
	if err := eng.Run(); err != nil {
		t.Fatalf("engine not reusable after a worker panic: %v", err)
	}
}
