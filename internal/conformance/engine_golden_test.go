package conformance

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/core"
	"fdlsp/internal/dmgc"
	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
	"fdlsp/internal/weighted"
)

// Set FDLSP_UPDATE_ENGINE_GOLDEN=1 to rewrite the engine golden from the
// current output:
//
//	FDLSP_UPDATE_ENGINE_GOLDEN=1 go test ./internal/conformance -run TestEngineGolden
const engineGoldenEnv = "FDLSP_UPDATE_ENGINE_GOLDEN"

// traceDigest folds every trace event, in emission order, into a SHA-256
// chain. Both engines emit a deterministic event order per seed, so the
// digest pins the full event stream without storing it.
type traceDigest struct {
	mu     sync.Mutex
	h      [sha256.Size]byte
	events int64
	state  []byte
}

func (t *traceDigest) Emit(e sim.Event) {
	t.mu.Lock()
	t.state = append(t.state[:0], t.h[:]...)
	t.state = append(t.state, e.String()...)
	t.h = sha256.Sum256(t.state)
	t.events++
	t.mu.Unlock()
}

// assignmentDigest hashes a schedule in the graph's canonical arc order.
func assignmentDigest(g *graph.Graph, as coloring.Assignment) string {
	var b strings.Builder
	for _, a := range g.Arcs() {
		fmt.Fprintf(&b, "%v=%d\n", a, as[a])
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

func writeBreakdown(b *strings.Builder, bd map[string]sim.Stats) {
	phases := make([]string, 0, len(bd))
	for p := range bd {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		fmt.Fprintf(b, "  breakdown %s %+v\n", p, bd[p])
	}
}

// TestEngineGolden pins fault-free protocol runs on both engines byte for
// byte: DistMIS (both variants), Randomized and DFS (plain and under an
// injected delay, which draws from the per-node delay generators) on seeded
// G(256,768) and G(60,300), plus the weighted DFS and distributed Vizing
// protocols on the asynchronous engine. Each line records the frame length,
// rounds, messages, per-phase breakdown, a schedule digest and the SHA-256
// of the full trace. Any change to RNG seeding, delivery order or the
// scheduler's handoff that alters a single draw or event shows here.
func TestEngineGolden(t *testing.T) {
	var b strings.Builder
	for _, gc := range []struct {
		name string
		n, m int
		seed int64
	}{{"G(256,768)", 256, 768, 41}, {"G(60,300)", 60, 300, 43}} {
		g := graph.ConnectedGNM(gc.n, gc.m, rand.New(rand.NewSource(gc.seed)))
		for _, algo := range []string{"distmis-gbg", "distmis-general", "randomized", "dfs", "dfs-delay"} {
			tr := &traceDigest{}
			var res *core.Result
			var err error
			switch algo {
			case "distmis-gbg":
				res, err = core.DistMIS(g, core.Options{Variant: core.GBG, Seed: 5, Trace: tr})
			case "distmis-general":
				res, err = core.DistMIS(g, core.Options{Variant: core.General, Seed: 5, Trace: tr})
			case "randomized":
				res, err = core.Randomized(g, 5)
			case "dfs":
				res, err = core.DFS(g, core.DFSOptions{Seed: 5, Trace: tr})
			default:
				res, err = core.DFS(g, core.DFSOptions{Seed: 5, Delay: sim.UniformDelay(3), Trace: tr})
			}
			label := gc.name + "/" + algo
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if bad := coloring.Verify(g, res.Assignment); len(bad) != 0 {
				t.Fatalf("%s: %d violations", label, len(bad))
			}
			fmt.Fprintf(&b, "%s\n", label)
			fmt.Fprintf(&b, "  slots=%d stats=%+v schedule=%s\n", res.Slots, res.Stats, assignmentDigest(g, res.Assignment))
			writeBreakdown(&b, res.Breakdown)
			fmt.Fprintf(&b, "  trace events=%d sha256=%x\n", tr.events, tr.h)
		}

		as, st, err := weighted.DFS(g, weighted.UniformDemand(2), 5)
		if err != nil {
			t.Fatalf("%s/weighted: %v", gc.name, err)
		}
		var wb strings.Builder
		for _, a := range g.Arcs() {
			fmt.Fprintf(&wb, "%v=%v\n", a, as[a])
		}
		fmt.Fprintf(&b, "%s/weighted\n  slots=%d stats=%+v schedule=%x\n", gc.name, as.Slots(), st, sha256.Sum256([]byte(wb.String())))

		ec, st, err := dmgc.DistributedVizing(g, 5)
		if err != nil {
			t.Fatalf("%s/vizing: %v", gc.name, err)
		}
		var eb strings.Builder
		for _, e := range g.Edges() {
			fmt.Fprintf(&eb, "%v=%d\n", e, ec[e])
		}
		fmt.Fprintf(&b, "%s/vizing\n  stats=%+v coloring=%x\n", gc.name, st, sha256.Sum256([]byte(eb.String())))
	}
	got := b.String()
	golden := filepath.Join("testdata", "engine.golden")
	if os.Getenv(engineGoldenEnv) != "" {
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
		t.Fatalf("%v (run with %s=1 to create)", err, engineGoldenEnv)
	}
	if got != string(want) {
		t.Errorf("engine outcome drifted (re-run with %s=1 if intended)\n--- got ---\n%s\n--- want ---\n%s", engineGoldenEnv, got, want)
	}
}
