package transport

import (
	"testing"

	"fdlsp/internal/sim"
)

// steadyEndpoint returns node 0 bound to neighbors 1–8, having heard from
// all of them, with a non-neighbor marked down.
func steadyEndpoint(opt Options) *endpoint {
	ep := newEndpoint(opt)
	ep.markDown(20)
	ep.bind(0, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(sim.Message, sim.Event) {})
	for _, q := range ep.neighbors {
		ep.receive(0, q, seg{Seq: 0})
	}
	return ep
}

// TestEndpointSteadyStateAllocs pins the per-frame cost of the dense
// endpoint: acks, receives (new, duplicate and reordered, with vouches for
// neighbors and non-neighbors) and the due scan allocate nothing; an open
// or a retransmission allocates at most its tick's Heard list, which every
// later frame of the tick shares.
func TestEndpointSteadyStateAllocs(t *testing.T) {
	const runs = 1000
	ep := steadyEndpoint(Options{})
	now := int64(1)
	for i := 0; i < runs+1; i++ {
		ep.open(now, 3, i, 0)
	}
	q := int64(0)
	if avg := testing.AllocsPerRun(runs, func() {
		ep.ack(now, 3, q)
		q++
	}); avg != 0 {
		t.Errorf("ack allocates %.1f times", avg)
	}

	heard := []int{0, 2, 3, 4, 11, 20, 99}
	var in int64 = 1
	if avg := testing.AllocsPerRun(runs, func() {
		// Frames in+1 and in arrive out of order, then in again.
		ep.receive(now, 2, seg{Seq: in + 1, Heard: heard})
		ep.receive(now, 2, seg{Seq: in, Heard: heard})
		ep.receive(now, 2, seg{Seq: in, Heard: heard})
		in += 2
	}); avg != 0 {
		t.Errorf("receive allocates %.1f times", avg)
	}

	for _, to := range ep.neighbors {
		ep.open(now, to, "pending", 0)
	}
	send := func(int, seg) {}
	if avg := testing.AllocsPerRun(runs, func() { ep.retransmitDue(now, send) }); avg != 0 {
		t.Errorf("due scan with nothing due allocates %.1f times", avg)
	}

	// Open and ack a segment per neighbor each tick.
	if avg := testing.AllocsPerRun(runs, func() {
		now++
		for _, to := range ep.neighbors {
			f, _ := ep.open(now, to, "x", 0)
			ep.ack(now, to, f.Seq)
		}
	}); avg > 1 {
		t.Errorf("a tick of opens allocates %.1f times, want at most its Heard list", avg)
	}

	// One segment retransmitted at every tick, never given up on, while
	// another neighbor keeps the Heard list non-empty.
	ep = steadyEndpoint(Options{MaxRetries: 1 << 30})
	ep.open(0, 5, "lost", 0)
	now, in = 0, 1
	sent := 0
	count := func(int, seg) { sent++ }
	if avg := testing.AllocsPerRun(runs, func() {
		now += 1 << 12
		ep.receive(now, 2, seg{Seq: in})
		in++
		ep.retransmitDue(now, count)
	}); avg > 1 {
		t.Errorf("a retransmission allocates %.1f times, want at most its Heard list", avg)
	}
	if sent != runs+1 {
		t.Errorf("%d retransmissions in %d ticks", sent, runs+1)
	}
}
