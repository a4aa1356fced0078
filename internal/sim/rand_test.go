package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fdlsp/internal/graph"
)

// drawMix draws a fixed mix through every rand.Rand entry point the
// protocols (or a future one) might use, so a stream mismatch shows in
// whichever method first consumes a differing word.
func drawMix(r *rand.Rand) []int64 {
	out := []int64{r.Int63(), int64(r.Uint64()), int64(r.Intn(1000)), int64(r.Int31n(7))}
	out = append(out, int64(math.Float64bits(r.Float64())), int64(math.Float64bits(r.NormFloat64())))
	for _, p := range r.Perm(9) {
		out = append(out, int64(p))
	}
	buf := make([]byte, 11) // odd length: leaves Read's buffered bytes mid-word
	r.Read(buf)
	for _, b := range buf {
		out = append(out, int64(b))
	}
	s := []int64{1, 2, 3, 4, 5}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return append(append(out, s...), r.Int63n(1<<40), int64(r.Uint32()))
}

// TestLazySourceMatchesNewSource pins the lazily seeded source to
// rand.NewSource stream for stream: across edge-case seeds (zero, negative,
// multiples of math/rand's 2³¹−1 modulus), through every draw method, after
// a Seed mid-stream, and after two Seeds with no draw in between.
func TestLazySourceMatchesNewSource(t *testing.T) {
	const m = math.MaxInt32 // math/rand reduces seeds modulo 2³¹−1
	seeds := []int64{0, 1, -1, -42, m, 2 * m, -m, 7 * m, m + 1, math.MaxInt64, math.MinInt64, 0x5BF03635}
	for _, seed := range seeds {
		var src lazySource
		lazy := newLazyRand(&src, seed)
		ref := rand.New(rand.NewSource(seed))
		check := func(stage string) {
			t.Helper()
			if got, want := drawMix(lazy), drawMix(ref); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s: lazy stream %v, want %v", seed, stage, got, want)
			}
		}
		check("first draws")
		check("continued")

		next := seed*31 + 17
		lazy.Seed(next)
		ref.Seed(next)
		check("re-seeded mid-stream")

		// Seed, Seed, draw: only the last seed may count.
		lazy.Seed(seed ^ 0x7C15F0B3)
		lazy.Seed(next - 1)
		ref.Seed(next - 1)
		check("seeded twice without a draw")

		// Uint64 first after a Seed goes through the same lazy path.
		lazy.Seed(seed)
		ref.Seed(seed)
		if got, want := lazy.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 first after Seed %d, want %d", seed, got, want)
		}
		check("after Uint64-first")
	}
}

// drawNode draws one word in round 0 when draw is set and records it.
type drawNode struct {
	draw bool
	got  int64
}

func (n *drawNode) Step(env *SyncEnv, _ []Message) bool {
	if n.draw && env.Round == 0 {
		n.got = env.Rand.Int63()
	}
	return true
}

// TestResetWithoutDrawsSeedsNothing pins the point of lazy seeding: a phase
// in which no node draws initializes no generator state at all, and a node
// that does draw gets exactly the stream an eagerly seeded engine gave it.
func TestResetWithoutDrawsSeedsNothing(t *testing.T) {
	g := graph.GNM(40, 100, rand.New(rand.NewSource(2)))
	var nodes []*drawNode
	factory := func(drawer int) func(int) SyncNode {
		nodes = make([]*drawNode, g.N())
		return func(id int) SyncNode {
			nodes[id] = &drawNode{draw: id == drawer}
			return nodes[id]
		}
	}
	eng := NewSyncEngine(g, 9, factory(-1))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for v, env := range eng.envs {
		if env.rng.seeded || env.rng.src != nil {
			t.Fatalf("node %d: generator initialized in a run without draws", v)
		}
	}

	const drawer = 13
	for _, seed := range []int64{9, -3} {
		eng.Reset(seed, factory(drawer))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for v, env := range eng.envs {
			if env.rng.seeded != (v == drawer) {
				t.Fatalf("seed %d: node %d seeded=%v, want only node %d seeded", seed, v, env.rng.seeded, drawer)
			}
		}
		if want := rand.New(rand.NewSource(envSeed(seed, drawer))).Int63(); nodes[drawer].got != want {
			t.Fatalf("seed %d: node %d drew %d, want %d", seed, drawer, nodes[drawer].got, want)
		}
	}

	eng.Reset(10, factory(-1))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for v, env := range eng.envs {
		if env.rng.seeded {
			t.Fatalf("node %d: generator re-initialized in a Reset phase without draws", v)
		}
	}
}
