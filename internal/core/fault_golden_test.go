package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/sim"
	"fdlsp/internal/transport"
)

// -update rewrites the fault-path golden from the current output:
//
//	go test ./internal/core -run TestFaultTransportGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// hashTracer folds every trace event, in emission order, into a SHA-256
// digest. Both engines emit a deterministic event order per seed, so the
// digest pins the full event stream without storing it.
type hashTracer struct {
	mu     sync.Mutex
	h      [sha256.Size]byte
	events int64
	state  []byte
}

func (t *hashTracer) Emit(e sim.Event) {
	t.mu.Lock()
	t.state = append(t.state[:0], t.h[:]...)
	t.state = append(t.state, e.String()...)
	t.h = sha256.Sum256(t.state)
	t.events++
	t.mu.Unlock()
}

// faultGoldenCase is one seeded faulty run of the golden table.
type faultGoldenCase struct {
	name string
	plan func(crashNode int) *sim.FaultPlan
	topt transport.Options
}

// faultGoldenCases cover the transport's fault paths: retransmission with a
// crash-and-restart re-arm, duplicate suppression under reordering, give-up
// on a crash-stop, send-once operation where give-ups are rescinded by
// gossip vouches, a restart with gossip disabled (only direct contact
// vouches), and a tight retry ladder under heavy loss that gives up on live
// peers and rescinds.
var faultGoldenCases = []faultGoldenCase{
	{name: "loss-restart", plan: func(c int) *sim.FaultPlan {
		return &sim.FaultPlan{Seed: 101, Loss: 0.2, Crashes: []sim.Crash{{Node: c, At: 30, RestartAt: 90}}}
	}},
	{name: "loss-dup-reorder", plan: func(int) *sim.FaultPlan {
		return &sim.FaultPlan{Seed: 202, Loss: 0.15, Dup: 0.1, Reorder: 2}
	}},
	{name: "crash-stop", plan: func(c int) *sim.FaultPlan {
		return &sim.FaultPlan{Seed: 303, Loss: 0.1, Crashes: []sim.Crash{{Node: c, At: 40}}}
	}},
	{name: "no-retries", plan: func(int) *sim.FaultPlan {
		return &sim.FaultPlan{Seed: 404, Loss: 0.02, Reorder: 4}
	}, topt: transport.Options{MaxRetries: transport.NoRetries}},
	{name: "no-gossip", plan: func(c int) *sim.FaultPlan {
		return &sim.FaultPlan{Seed: 505, Loss: 0.2, Crashes: []sim.Crash{{Node: c, At: 30, RestartAt: 90}}}
	}, topt: transport.Options{VouchWindow: -1}},
	{name: "tuned", plan: func(c int) *sim.FaultPlan {
		return &sim.FaultPlan{Seed: 606, Loss: 0.25, Crashes: []sim.Crash{{Node: c, At: 40}}}
	}, topt: transport.Options{RTO: 2, MaxRTO: 24, MaxRetries: 3}},
}

// perNodeDigest hashes the per-node transport counters in node order.
func perNodeDigest(per []transport.Counters) string {
	var b strings.Builder
	for v, c := range per {
		fmt.Fprintf(&b, "%d:%+v\n", v, c)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// TestFaultTransportGolden pins DistMIS (GBG and General) and DFS on seeded
// dense unit-disk graphs under every transport fault path, byte for byte:
// frame length, rounds, messages, crash and rejoin accounting, transport
// totals, per-node counters and the full trace. Any change to the reliable
// transport that alters a retransmission, a vouch or a give-up shows here.
func TestFaultTransportGolden(t *testing.T) {
	const n = 20
	g := faultUDG(t, 11, n)
	crashNode := n / 3
	var b strings.Builder
	for _, tc := range faultGoldenCases {
		for _, algo := range []string{"distmis-gbg", "distmis-general", "dfs"} {
			tr := &hashTracer{}
			plan := tc.plan(crashNode)
			var res *Result
			var err error
			switch algo {
			case "distmis-gbg":
				res, err = DistMIS(g, Options{Variant: GBG, Seed: 5, Fault: plan, Transport: tc.topt, Trace: tr})
			case "distmis-general":
				res, err = DistMIS(g, Options{Variant: General, Seed: 5, Fault: plan, Transport: tc.topt, Trace: tr})
			default:
				res, err = DFS(g, DFSOptions{Seed: 5, Fault: plan, Transport: tc.topt, Trace: tr})
			}
			label := tc.name + "/" + algo
			sendOnce := tc.topt.MaxRetries == transport.NoRetries
			fmt.Fprintf(&b, "%s\n", label)
			if err != nil {
				// Send-once DFS loses its token for good and its recovery
				// epochs give up; the failure and the trace leading to it are
				// pinned like any other outcome.
				if !sendOnce {
					t.Fatalf("%s: %v", label, err)
				}
				fmt.Fprintf(&b, "  error %v\n", err)
				fmt.Fprintf(&b, "  trace events=%d sha256=%x\n", tr.events, tr.h)
				continue
			}
			// Send-once delivery cannot promise a conflict-free schedule: a
			// lost color announcement is never repaired. The golden records
			// how many conflicts it leaves; every retrying case must be clean.
			violations := len(coloring.Verify(SurvivingGraph(g, res.Crashed), res.Assignment))
			if !sendOnce {
				verifySurviving(t, g, res, label)
			} else if res.Transport.PeersDown == 0 || res.Transport.PeersUp == 0 {
				t.Errorf("%s: send-once run must give up and rescind, got %v", label, res.Transport)
			}
			fmt.Fprintf(&b, "  slots=%d rounds=%d messages=%d crashed=%v rejoin=%+v violations=%d\n",
				res.Slots, res.Stats.Rounds, res.Stats.Messages, res.Crashed, res.Rejoin, violations)
			fmt.Fprintf(&b, "  transport %s\n", res.Transport)
			fmt.Fprintf(&b, "  pernode %s\n", perNodeDigest(res.Transport.PerNode))
			fmt.Fprintf(&b, "  trace events=%d sha256=%x\n", tr.events, tr.h)
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "fault_transport.golden")
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
		t.Errorf("fault-path outcome drifted (re-run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
