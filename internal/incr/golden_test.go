package incr

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
)

// TestApplyStreamGolden pins Apply's full output byte for byte: on seeded
// G(n,3n) networks (n = 256 and 1024) it feeds 150 batches of 1–4 link
// flips, mixed with NodeFail/NodeJoin/NodeMove events and one invalid
// batch, then heals an adversarial all-in-one-slot start through
// NewHealing. Every Report field is recorded (MinUsable as its float bits)
// together with a SHA-256 of each final schedule. Any change to the dirty
// set, the repair rule, the conflict rows or the cache counters shows here.
// To re-record after an intended change, delete testdata/apply.golden and
// run the test once.
func TestApplyStreamGolden(t *testing.T) {
	var b strings.Builder
	for _, run := range []struct {
		n    int
		seed int64
	}{{256, 1}, {1024, 2}} {
		rng := rand.New(rand.NewSource(run.seed))
		g := graph.ConnectedGNM(run.n, 3*run.n, rng)
		up, err := New(g, coloring.Greedy(g, nil))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== n=%d seed=%d slots=%d\n", run.n, run.seed, up.Slots())
		targetM := g.M()
		var failed []int
		for i := 0; i < 150; i++ {
			batch := goldenBatch(up.Graph(), targetM, i, &failed, rng)
			rep, err := up.Apply(batch)
			writeGoldenReport(&b, i, batch, rep, err)
			if err != nil && !errors.Is(err, ErrBadDelta) {
				t.Fatalf("n=%d batch %d: %v", run.n, i, err)
			}
		}
		writeGoldenSchedule(&b, up)
	}

	g, as := adversarial(256, 768, 3, true)
	up := NewHealing(g, as)
	fmt.Fprintf(&b, "== healing n=256 seed=3\n")
	rng := rand.New(rand.NewSource(4))
	var failed []int
	for i := 0; i < 10; i++ {
		batch := goldenBatch(up.Graph(), g.M(), i, &failed, rng)
		rep, err := up.Apply(batch)
		if err != nil {
			t.Fatalf("healing batch %d: %v", i, err)
		}
		writeGoldenReport(&b, i, batch, rep, nil)
	}
	writeGoldenSchedule(&b, up)

	got := b.String()
	golden := filepath.Join("testdata", "apply.golden")
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", golden)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("apply stream drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("apply stream drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// goldenBatch draws batch i of the golden stream against a shadow of the
// current topology, so every event of a multi-event batch is valid after
// the ones before it. Batch 75 ends in a link-up on an existing edge (the
// whole batch must roll back); every 30 batches a NodeFail, NodeJoin (of
// the last failed node) and NodeMove lead a batch, followed by flips.
func goldenBatch(g *graph.Graph, targetM, i int, failed *[]int, rng *rand.Rand) []dynamic.Event {
	sh := g.Clone()
	var batch []dynamic.Event
	push := func(ev dynamic.Event) {
		batch = append(batch, ev)
		applyShadow(sh, ev)
	}
	switch i % 30 {
	case 10:
		v := rng.Intn(sh.N())
		for sh.Degree(v) == 0 {
			v = rng.Intn(sh.N())
		}
		*failed = append(*failed, v)
		push(dynamic.Event{Kind: dynamic.NodeFail, U: v})
	case 20:
		if k := len(*failed); k > 0 {
			v := (*failed)[k-1]
			*failed = (*failed)[:k-1]
			push(dynamic.Event{Kind: dynamic.NodeJoin, U: v, Peers: freshPeers(sh, v, 3, rng)})
		}
	case 25:
		v := rng.Intn(sh.N())
		var peers []int
		for j, w := range sh.Neighbors(v) {
			if j%2 == 0 {
				peers = append(peers, w)
			}
		}
		peers = append(peers, freshPeers(sh, v, 2, rng)...)
		push(dynamic.Event{Kind: dynamic.NodeMove, U: v, Peers: peers})
	}
	for k := 1 + rng.Intn(4); len(batch) < k; {
		push(randomEvent(sh, targetM, rng))
	}
	if i == 75 {
		e := sh.Edges()[rng.Intn(sh.M())]
		batch = append(batch, dynamic.Event{Kind: dynamic.LinkUp, U: e.U, V: e.V})
	}
	return batch
}

// freshPeers draws k distinct nodes other than v not adjacent to it.
func freshPeers(g *graph.Graph, v, k int, rng *rand.Rand) []int {
	var peers []int
	seen := map[int]bool{}
	for len(peers) < k {
		w := rng.Intn(g.N())
		if w != v && !seen[w] && !g.HasEdge(v, w) {
			seen[w] = true
			peers = append(peers, w)
		}
	}
	return peers
}

// applyShadow mirrors Updater.applyEvent on a bare graph for valid events.
func applyShadow(g *graph.Graph, ev dynamic.Event) {
	switch ev.Kind {
	case dynamic.LinkUp:
		g.AddEdge(ev.U, ev.V)
	case dynamic.LinkDown:
		g.RemoveEdge(ev.U, ev.V)
	case dynamic.NodeFail:
		for _, w := range g.Neighbors(ev.U) {
			g.RemoveEdge(ev.U, w)
		}
	case dynamic.NodeJoin:
		for _, w := range ev.Peers {
			g.AddEdge(ev.U, w)
		}
	case dynamic.NodeMove:
		for _, w := range g.Neighbors(ev.U) {
			g.RemoveEdge(ev.U, w)
		}
		for _, w := range ev.Peers {
			g.AddEdge(ev.U, w)
		}
	}
}

func writeGoldenReport(b *strings.Builder, i int, batch []dynamic.Event, rep *Report, err error) {
	fmt.Fprintf(b, "%d %v\n", i, batch)
	if err != nil {
		fmt.Fprintf(b, "  err bad=%v %v\n", errors.Is(err, ErrBadDelta), err)
		return
	}
	fmt.Fprintf(b, "  events=%d dirty=%d rounds=%d minusable=%016x frame=%d patches=%d patched=%d rebuilds=%d\n",
		rep.Events, rep.DirtyArcs, rep.Rounds, math.Float64bits(rep.MinUsable), rep.FrameLength,
		rep.CachePatches, rep.CachePatchedArcs, rep.CacheRebuilds)
	fmt.Fprintf(b, "  recolored=%v\n  dropped=%v\n", rep.Recolored, rep.Dropped)
}

func writeGoldenSchedule(b *strings.Builder, up *Updater) {
	var sched strings.Builder
	for _, a := range up.Graph().Arcs() {
		fmt.Fprintf(&sched, "%v=%d\n", a, up.Assignment()[a])
	}
	fmt.Fprintf(b, "slots=%d updates=%d schedule sha256=%x\n",
		up.Slots(), up.Updates(), sha256.Sum256([]byte(sched.String())))
}
