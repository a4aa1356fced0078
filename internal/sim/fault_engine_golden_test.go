package sim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fdlsp/internal/graph"
)

// -update rewrites the fault-engine golden from the current output:
//
//	go test ./internal/sim -run TestFaultEngineGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// shaTracer hashes every trace event, in emission order, into one SHA-256.
type shaTracer struct {
	mu     sync.Mutex
	h      hash.Hash
	events int64
}

func newShaTracer() *shaTracer { return &shaTracer{h: sha256.New()} }

func (t *shaTracer) Emit(e Event) {
	t.mu.Lock()
	fmt.Fprintln(t.h, e.String())
	t.events++
	t.mu.Unlock()
}

// noticeLog records the NodeRestarted notices one node received, as
// "time#generation" entries in receipt order.
type noticeLog []string

func (l *noticeLog) note(t int64, p NodeRestarted) {
	*l = append(*l, fmt.Sprintf("%d#%d", t, p.Restarts))
}

// syncGossip broadcasts a fresh draw every round until its budget runs out
// and folds its inbox, NodeRestarted notices included, into a hash.
type syncGossip struct {
	rounds  int
	hash    uint64
	notices noticeLog
}

func (n *syncGossip) Step(env *SyncEnv, inbox []Message) bool {
	for _, m := range inbox {
		n.hash = n.hash*0x100000001B3 + uint64(m.From+2)
		switch p := m.Payload.(type) {
		case int64:
			n.hash ^= uint64(p)
		case NodeRestarted:
			n.notices.note(int64(env.Round), p)
		}
	}
	if env.Round < n.rounds {
		env.Broadcast(env.Rand.Int63n(1 << 30))
	}
	return env.Round >= n.rounds
}

// gossipTick is the asyncGossip node's self-timer payload.
type gossipTick struct{}

// asyncGossip gossips on a self-timer until its clock passes horizon. A
// timer that falls into the node's crash window is lost with the node, so
// the ticking stops until a NodeRestarted notice re-arms it.
type asyncGossip struct {
	horizon int64
	hash    uint64
	notices noticeLog
}

func (n *asyncGossip) Run(env *AsyncEnv) {
	env.Broadcast(int64(env.ID))
	env.SetTimer(2, gossipTick{})
	for {
		m, ok := env.Recv()
		if !ok {
			return
		}
		n.hash = n.hash*0x100000001B3 + uint64(m.From+2)
		switch p := m.Payload.(type) {
		case int64:
			n.hash ^= uint64(p)
		case NodeRestarted:
			n.notices.note(m.When, p)
			env.SetTimer(1, gossipTick{})
		case gossipTick:
			if env.Clock() < n.horizon {
				env.Broadcast(env.Rand.Int63n(1 << 30))
				env.SetTimer(1+env.Rand.Int63n(3), gossipTick{})
			}
		}
	}
}

// faultEngineCase is one seeded fault plan of the engine golden.
type faultEngineCase struct {
	name string
	plan FaultPlan
	// maxRounds and maxEvents, when set, bound the sync and async runs so
	// the case pins an aborted run.
	maxRounds int
	maxEvents int64
}

// faultEngineCases cover every path of the fault plan on the raw engines:
// message faults, crash-stops firing out of id order, back-to-back windows
// on one node, a zero-length outage, a restart beyond the sync run's
// quiescence, async timers inside a crash window, and budget aborts.
var faultEngineCases = []faultEngineCase{
	{name: "dup-reorder", plan: FaultPlan{Seed: 11, Loss: 0.1, Dup: 0.25, Reorder: 3}},
	{name: "crash-stops", plan: FaultPlan{Seed: 12, Loss: 0.05, Crashes: []Crash{
		{Node: 5, At: 1}, {Node: 2, At: 3}, {Node: 9, At: 7, RestartAt: 11},
	}}},
	{name: "back-to-back", plan: FaultPlan{Seed: 13, Dup: 0.1, Reorder: 1, Crashes: []Crash{
		{Node: 3, At: 2, RestartAt: 5}, {Node: 3, At: 5, RestartAt: 8}, {Node: 3, At: 12, RestartAt: 14},
	}}},
	{name: "zero-length", plan: FaultPlan{Seed: 14, Loss: 0.1, Crashes: []Crash{
		{Node: 4, At: 6, RestartAt: 6}, {Node: 1, At: 4, RestartAt: 7},
	}}},
	// Node 1 is not done when it crashes, so the sync run spins to its
	// restart; node 2 crashes after every node is done, so the sync run
	// quiesces with that restart pending while the async run waits for it.
	{name: "pending-restart", plan: FaultPlan{Seed: 15, Crashes: []Crash{
		{Node: 1, At: 3, RestartAt: 40}, {Node: 2, At: 41, RestartAt: 500},
	}}},
	{name: "timers-in-window", plan: FaultPlan{Seed: 16, Loss: 0.05, Reorder: 2, Crashes: []Crash{
		{Node: 0, At: 3, RestartAt: 15}, {Node: 7, At: 5, RestartAt: 9}, {Node: 7, At: 16},
	}}},
	{name: "budget-abort", plan: FaultPlan{Seed: 17, Loss: 0.1, Dup: 0.2, Reorder: 2, Crashes: []Crash{
		{Node: 6, At: 2, RestartAt: 4},
	}}, maxRounds: 6, maxEvents: 60},
}

// writeFaultRun renders one engine run: its error, stats, churn lists,
// per-node notices and hashes, and the trace digest.
func writeFaultRun(b *strings.Builder, err error, st Stats, crashed, returned []int, notices []noticeLog, hashes []uint64, tr *shaTracer) {
	if err != nil {
		fmt.Fprintf(b, "  error %v\n", err)
	}
	fmt.Fprintf(b, "  stats %+v\n", st)
	fmt.Fprintf(b, "  crashed %v returned %v\n", crashed, returned)
	for v, l := range notices {
		if len(l) > 0 {
			fmt.Fprintf(b, "  notices %d %v\n", v, []string(l))
		}
	}
	h := sha256.New()
	for _, x := range hashes {
		fmt.Fprintf(h, "%d\n", x)
	}
	fmt.Fprintf(b, "  state sha256=%x\n", h.Sum(nil))
	fmt.Fprintf(b, "  trace events=%d sha256=%x\n", tr.events, tr.h.Sum(nil))
}

func runFaultSync(g *graph.Graph, tc faultEngineCase, workers int) string {
	nodes := make([]*syncGossip, g.N())
	eng := NewSyncEngine(g, 21, func(id int) SyncNode {
		nodes[id] = &syncGossip{rounds: 14}
		return nodes[id]
	})
	eng.Workers = workers
	plan := tc.plan
	eng.Fault = &plan
	eng.MaxRounds = tc.maxRounds
	tr := newShaTracer()
	eng.Trace = tr
	err := eng.Run()
	notices := make([]noticeLog, g.N())
	hashes := make([]uint64, g.N())
	for v, nd := range nodes {
		notices[v], hashes[v] = nd.notices, nd.hash
	}
	var b strings.Builder
	writeFaultRun(&b, err, eng.Stats(), eng.Crashed(), eng.Returned(), notices, hashes, tr)
	return b.String()
}

func runFaultAsync(g *graph.Graph, tc faultEngineCase) string {
	nodes := make([]*asyncGossip, g.N())
	eng := NewAsyncEngine(g, 22, func(id int) AsyncNode {
		nodes[id] = &asyncGossip{horizon: 20}
		return nodes[id]
	})
	plan := tc.plan
	eng.Fault = &plan
	eng.MaxEvents = tc.maxEvents
	tr := newShaTracer()
	eng.Trace = tr
	err := eng.Run()
	notices := make([]noticeLog, g.N())
	hashes := make([]uint64, g.N())
	for v, nd := range nodes {
		notices[v], hashes[v] = nd.notices, nd.hash
	}
	var b strings.Builder
	writeFaultRun(&b, err, eng.Stats(), eng.Crashed(), eng.Returned(), notices, hashes, tr)
	return b.String()
}

// TestFaultEngineGolden pins both engines under every fault-plan path, with
// no transport on top: stats, Crashed and Returned, the time and generation
// of every NodeRestarted notice, the protocol state, and the full trace.
// The synchronous engine must produce the same bytes at Workers 1 and 4.
func TestFaultEngineGolden(t *testing.T) {
	g := graph.GNM(12, 26, rand.New(rand.NewSource(31)))
	var b strings.Builder
	for _, tc := range faultEngineCases {
		serial := runFaultSync(g, tc, 1)
		if pooled := runFaultSync(g, tc, 4); pooled != serial {
			t.Errorf("%s: sync run at Workers 4 diverged from Workers 1\nserial:\n%spooled:\n%s", tc.name, serial, pooled)
		}
		fmt.Fprintf(&b, "%s/sync\n%s", tc.name, serial)
		fmt.Fprintf(&b, "%s/async\n%s", tc.name, runFaultAsync(g, tc))
	}
	got := b.String()
	golden := filepath.Join("testdata", "fault_engine.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("fault engine output diverged from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
