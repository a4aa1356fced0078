package incr

import (
	"fmt"
	"math/rand"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
)

// singleFlipSession returns a live session on G(256, 768) and a batch that
// drops and re-adds one of its links, applied once so the session is warm.
func singleFlipSession(tb testing.TB) (*Updater, []dynamic.Event) {
	g := graph.ConnectedGNM(256, 768, rand.New(rand.NewSource(1)))
	up, err := New(g, coloring.Greedy(g, nil))
	if err != nil {
		tb.Fatal(err)
	}
	e := g.Edges()[0]
	batch := []dynamic.Event{
		{Kind: dynamic.LinkDown, U: e.U, V: e.V},
		{Kind: dynamic.LinkUp, U: e.U, V: e.V},
	}
	if _, err := up.Apply(batch); err != nil {
		tb.Fatal(err)
	}
	return up, batch
}

// TestApplySingleFlipAllocs pins the steady-state update's allocations: the
// conflict-cache patch drops the rows around the flip instead of rewriting
// them, so an update allocates for the few rows it reads, not for every row
// within two hops of the flip.
func TestApplySingleFlipAllocs(t *testing.T) {
	up, batch := singleFlipSession(t)
	avg := testing.AllocsPerRun(50, func() {
		if _, err := up.Apply(batch); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 100 {
		t.Errorf("a drop-and-readd update allocates %.0f, want at most 100", avg)
	}
}

// BenchmarkApplySingleFlip is the local proxy for the benchkit incr rows:
// one drop-and-readd batch on a live session, the steady-state op of the
// rescheduling service.
func BenchmarkApplySingleFlip(b *testing.B) {
	up, batch := singleFlipSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := up.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyChurnStream replays a seeded stream shaped like fdlspd's
// session churn on G(n, 3n): 350 batches of 1–4 link flips that hold the
// edge count near its start and never isolate a node. One op is one batch.
// Each pass over the stream runs on a fresh session whose conflict cache is
// warmed off the clock, so every timed batch takes the patch path.
func BenchmarkApplyChurnStream(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.ConnectedGNM(n, 3*n, rng)
			as := coloring.Greedy(g, nil)
			shadow := g.Clone()
			stream := make([][]dynamic.Event, 350)
			for i := range stream {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					ev := randomEvent(shadow, g.M(), rng)
					if ev.Kind == dynamic.LinkUp {
						shadow.AddEdge(ev.U, ev.V)
					} else {
						shadow.RemoveEdge(ev.U, ev.V)
					}
					stream[i] = append(stream[i], ev)
				}
			}
			var up *Updater
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(stream) == 0 {
					b.StopTimer()
					var err error
					if up, err = New(g, as); err != nil {
						b.Fatal(err)
					}
					coloring.CacheStats(up.Graph())
					b.StartTimer()
				}
				if _, err := up.Apply(stream[i%len(stream)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
