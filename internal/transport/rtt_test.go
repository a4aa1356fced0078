package transport

import (
	"testing"

	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
)

func TestRTTEstimatorFirstSample(t *testing.T) {
	var e rttEstimator
	if got := e.rto(4, 128); got != 4 {
		t.Errorf("pre-sample rto = %d, want floor 4", got)
	}
	e.observe(10)
	// RFC 6298 init: SRTT = sample, RTTVAR = sample/2, RTO = SRTT + 4·RTTVAR.
	if e.srtt8 != 80 || e.rttvar4 != 20 {
		t.Errorf("after first sample srtt8=%d rttvar4=%d, want 80, 20", e.srtt8, e.rttvar4)
	}
	if got := e.rto(4, 128); got != 30 {
		t.Errorf("rto after first sample = %d, want 10+20=30", got)
	}
}

func TestRTTEstimatorConvergesOnSteadySamples(t *testing.T) {
	var e rttEstimator
	for i := 0; i < 64; i++ {
		e.observe(6)
	}
	// Constant samples drive SRTT to the sample and RTTVAR toward its
	// integer-decay floor (rttvar4 settles at 3, since 3 - 3/4 = 3), so the
	// timeout settles just above the sample itself.
	if srtt := e.srtt8 / 8; srtt != 6 {
		t.Errorf("steady-state srtt = %d, want 6", srtt)
	}
	if got := e.rto(1, 128); got < 6 || got > 9 {
		t.Errorf("steady-state rto = %d, want within [6,9]", got)
	}
}

func TestRTTEstimatorTracksVariance(t *testing.T) {
	var jittery, steady rttEstimator
	for i := 0; i < 32; i++ {
		steady.observe(8)
		if i%2 == 0 {
			jittery.observe(2)
		} else {
			jittery.observe(14)
		}
	}
	// Same mean, different variance: the jittery link must earn the larger
	// timeout — that margin is what suppresses spurious retransmissions.
	if j, s := jittery.rto(1, 1024), steady.rto(1, 1024); j <= s {
		t.Errorf("jittery rto %d should exceed steady rto %d", j, s)
	}
}

func TestRTTEstimatorClampsSamplesAndBounds(t *testing.T) {
	var e rttEstimator
	e.observe(0) // clamped to 1
	if e.srtt8 != 8 {
		t.Errorf("zero sample not clamped: srtt8 = %d, want 8", e.srtt8)
	}
	e.observe(1 << 40)
	if got := e.rto(4, 64); got != 64 {
		t.Errorf("rto = %d, want ceiling 64", got)
	}
	var low rttEstimator
	low.observe(1)
	for i := 0; i < 32; i++ {
		low.observe(1)
	}
	if got := low.rto(4, 64); got != 4 {
		t.Errorf("rto = %d, want floor 4", got)
	}
}

func TestBackoffMonotonicAndCapped(t *testing.T) {
	o := Options{RTO: 3, MaxRTO: 48}.withDefaults()
	prev := int64(0)
	for r := 0; r < 12; r++ {
		b := o.backoff(3, r)
		if b < prev {
			t.Errorf("backoff(3, %d) = %d < backoff(3, %d) = %d; must be monotone", r, b, r-1, prev)
		}
		if b > o.MaxRTO {
			t.Errorf("backoff(3, %d) = %d exceeds MaxRTO %d", r, b, o.MaxRTO)
		}
		prev = b
	}
	if first := o.backoff(3, 0); first != 3 {
		t.Errorf("backoff(3, 0) = %d, want base 3", first)
	}
	// An adaptive base estimate above MaxRTO must still respect the base
	// (never retransmit sooner than one estimated round trip).
	if b := o.backoff(100, 0); b != 100 {
		t.Errorf("backoff(100, 0) = %d, want 100", b)
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	d := Options{}.withDefaults()
	if d.RTO != 4 || d.MaxRTO != 128 || d.MaxRetries != 8 || d.VouchWindow != 32 {
		t.Errorf("zero-value defaults = %+v", d)
	}
	// NoRetries is the explicit "send once" spelling; a literal 0 means
	// "default", so the two must resolve differently.
	if got := (Options{MaxRetries: NoRetries}).withDefaults().MaxRetries; got != 0 {
		t.Errorf("NoRetries resolved to %d retransmissions, want 0", got)
	}
	if got := (Options{MaxRetries: 3}).withDefaults().MaxRetries; got != 3 {
		t.Errorf("explicit MaxRetries changed to %d", got)
	}
	if got := (Options{VouchWindow: -1}).withDefaults().VouchWindow; got != -1 {
		t.Errorf("disabled gossip (VouchWindow -1) changed to %d", got)
	}
	for _, good := range []Options{{}, {MaxRetries: NoRetries}, {RTO: 1, MaxRetries: 3}, {VouchWindow: -1}} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", good, err)
		}
	}
	for _, bad := range []Options{{RTO: -1}, {MaxRetries: NoRetries - 1}} {
		if bad.Validate() == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("withDefaults(%+v) should panic", bad)
				}
			}()
			bad.withDefaults()
		}()
	}
}

func TestNoRetriesGivesUpAtFirstTimeout(t *testing.T) {
	g := graph.Path(2)
	var gotDown bool
	wraps := make([]*Sync, g.N())
	eng := sim.NewSyncEngine(g, 1, func(id int) sim.SyncNode {
		wraps[id] = NewSync(syncStepFunc(func(env *SyncEnv, inbox []sim.Message) bool {
			if env.Round == 0 && env.ID == 0 {
				env.Send(1, "hello?")
			}
			for _, m := range inbox {
				if _, ok := m.Payload.(PeerDown); ok && env.ID == 0 {
					gotDown = true
				}
			}
			return true
		}), &Options{RTO: 2, MaxRetries: NoRetries})
		return wraps[id]
	})
	eng.Fault = &sim.FaultPlan{Seed: 7, Crashes: []sim.Crash{{Node: 1, At: 0}}}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotDown {
		t.Fatal("want PeerDown at node 0")
	}
	totals := Collect(wraps)
	if totals.Retries != 0 {
		t.Errorf("NoRetries must never retransmit, got %d retries", totals.Retries)
	}
	if totals.GaveUp != 1 {
		t.Errorf("GaveUp = %d, want 1", totals.GaveUp)
	}
}

func TestSyncPeerUpRescindsGiveUpOnContact(t *testing.T) {
	g := graph.Path(2)
	var ups, downs []int
	wraps := make([]*Sync, g.N())
	eng := sim.NewSyncEngine(g, 1, func(id int) sim.SyncNode {
		wraps[id] = NewSync(syncStepFunc(func(env *SyncEnv, inbox []sim.Message) bool {
			if env.ID == 0 && env.Round == 0 {
				env.Send(1, "hello?")
			}
			for _, m := range inbox {
				switch p := m.Payload.(type) {
				case PeerDown:
					if env.ID == 0 {
						downs = append(downs, p.Peer)
					}
				case PeerUp:
					if env.ID == 0 {
						ups = append(ups, p.Peer)
					}
				case sim.NodeRestarted:
					env.Broadcast("back")
				}
			}
			return true
		}), &Options{RTO: 1, MaxRetries: 1})
		return wraps[id]
	})
	// Node 1's outage outlives node 0's tiny retry budget, so node 0 gives
	// up; the restart broadcast is direct contact and must rescind it.
	eng.Fault = &sim.FaultPlan{Seed: 3, Crashes: []sim.Crash{{Node: 1, At: 0, RestartAt: 20}}}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(downs) != 1 || downs[0] != 1 {
		t.Fatalf("PeerDown notices at node 0 = %v, want [1]", downs)
	}
	if len(ups) != 1 || ups[0] != 1 {
		t.Fatalf("PeerUp notices at node 0 = %v, want [1]", ups)
	}
	if wraps[0].env.Down(1) {
		t.Error("node 0 still reports peer 1 down after rescind")
	}
	totals := Collect(wraps)
	if totals.PeersDown != 1 || totals.PeersUp != 1 {
		t.Errorf("counters %v, want exactly one give-up and one rescind", totals)
	}
}

func TestAsyncVouchRescindsThirdPartyGiveUp(t *testing.T) {
	// Star center 0 with leaves 1, 2... but gossip needs a common neighbor:
	// leaves only talk to the center, so run the triangle instead. Node 2
	// crashes long enough for node 0 to give up, then restarts and contacts
	// only node 1; node 1's next frame to node 0 vouches for 2, which must
	// rescind node 0's give-up without any direct 2->0 contact.
	g := graph.Complete(3)
	var ups []int
	eng := sim.NewAsyncEngine(g, 6, func(id int) sim.AsyncNode {
		return NewAsync(asyncRunFunc(func(env *AsyncEnv) {
			switch env.ID {
			case 0:
				env.Send(2, "hello?")
				for {
					m, ok := env.Recv()
					if !ok {
						return
					}
					if up, isUp := m.Payload.(PeerUp); isUp {
						ups = append(ups, up.Peer)
						env.FinishAll()
						return
					}
				}
			case 1:
				for {
					m, ok := env.Recv()
					if !ok {
						return
					}
					// Any contact from 2 freshens it in node 1's heard set;
					// answering node 0 piggybacks the vouch.
					if m.From == 2 {
						env.Send(0, "fyi")
					}
				}
			default:
				for {
					m, ok := env.Recv()
					if !ok {
						return
					}
					if _, restarted := m.Payload.(sim.NodeRestarted); restarted {
						env.Send(1, "i'm back")
					}
				}
			}
		}), &Options{RTO: 2, MaxRetries: 2, VouchWindow: 64})
	})
	eng.Fault = &sim.FaultPlan{Seed: 14, Crashes: []sim.Crash{{Node: 2, At: 0, RestartAt: 40}}}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0] != 2 {
		t.Fatalf("PeerUp notices at node 0 = %v, want [2] via gossip vouch", ups)
	}
}
