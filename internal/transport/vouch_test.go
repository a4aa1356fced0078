package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
)

// The tests in this file check the per-peer segment index against the
// full scans it replaced. Node 0 of a small seeded lossy run is watched:
// after each physical round (sync) or delivery (async) the send order and
// the retrying lists must cover every in-flight segment a full scan would
// visit, and at seeded points a vouch or a give-up is applied both ways — to
// the live endpoint and, by the references below, to a copy taken just
// before — and the two must agree on every counter and on every segment's
// retries and due round.

// segView is the vouch-relevant state of one in-flight segment.
type segView struct {
	to, retries int
	due         int64
	retried     bool
}

// segKey names an in-flight segment by destination and per-link seq.
type segKey struct {
	to  int
	seq int64
}

// endpointView is a deep copy of an endpoint's vouch-relevant state.
type endpointView struct {
	segs map[segKey]segView
	down map[int]bool
	c    Counters
}

func view(ep *endpoint) endpointView {
	v := endpointView{segs: map[segKey]segView{}, down: map[int]bool{}, c: ep.c}
	for _, q := range ep.cold {
		v.down[q] = true
	}
	for i := range ep.peers {
		p := &ep.peers[i]
		to := ep.neighbors[i]
		if p.down {
			v.down[to] = true
		}
		for k := p.off; k < len(p.fifo); k++ {
			if s := p.fifo[k]; s.live {
				v.segs[segKey{to, p.head + int64(k-p.off)}] = segView{to: to, retries: int(s.retries), due: s.due, retried: s.retried}
			}
		}
	}
	return v
}

// refVouch is the reference full-scan vouch: it examines every in-flight
// segment, resets the retry budget of each one addressed to peer that holds
// one, moving its next retransmission to due, and rescinds a give-up on
// peer.
func (v *endpointView) refVouch(peer int, due int64) {
	for q, s := range v.segs {
		if s.to == peer && s.retries > 0 {
			s.retries = 0
			s.retried = true
			s.due = due
			v.segs[q] = s
			v.c.Vouched++
		}
	}
	if v.down[peer] {
		delete(v.down, peer)
		v.c.PeersUp++
	}
}

// refGiveUp is the reference full-scan give-up: it abandons every
// in-flight segment addressed to peer.
func (v *endpointView) refGiveUp(peer int) {
	if v.down[peer] {
		return
	}
	v.down[peer] = true
	v.c.PeersDown++
	for q, s := range v.segs {
		if s.to == peer {
			delete(v.segs, q)
			v.c.GaveUp++
		}
	}
}

// checkIndex reports whether the endpoint's indexes list everything a full
// scan would visit: every in-flight segment in the send order the due scan
// and restart walk, and every one that holds a retry count also in its
// peer's retrying list. A full-scan give-up leaves no segment in flight to a
// peer that is down, so none may be.
func (v endpointView) checkIndex(ep *endpoint) error {
	order := map[segKey]bool{}
	for _, r := range ep.order {
		order[segKey{ep.neighbors[r.peer], r.seq}] = true
	}
	for k, s := range v.segs {
		if !order[k] {
			return fmt.Errorf("segment %d to %d missing from the send order", k.seq, k.to)
		}
		retrying := ep.peers[slices.Index(ep.neighbors, k.to)].retrying
		if s.retries > 0 && !slices.Contains(retrying, k.seq) {
			return fmt.Errorf("segment %d to %d has %d retries but is missing from retrying index %v",
				k.seq, k.to, s.retries, retrying)
		}
		if v.down[k.to] {
			return fmt.Errorf("segment %d in flight to %d, which is down", k.seq, k.to)
		}
	}
	if len(v.segs) != ep.inFlight {
		return fmt.Errorf("%d segments in flight, counted %d", len(v.segs), ep.inFlight)
	}
	return nil
}

// diff applies op to the endpoint and ref to a view taken before op, and
// reports the first difference.
func diff(what string, ep *endpoint, ref func(*endpointView), op func()) error {
	want := view(ep)
	ref(&want)
	op()
	if got := view(ep); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: indexed %+v, full scan %+v", what, got, want)
	}
	return nil
}

// vouch applies liveness evidence for peer id, as a Heard-list entry
// does.
func (ep *endpoint) vouch(now int64, id int) {
	if i, ok := ep.index(id); ok {
		ep.vouchAt(now, i)
	} else {
		ep.vouchCold(now, id)
	}
}

func diffVouch(ep *endpoint, now int64, peer int) error {
	due := now + ep.rtoFor(peer)
	return diff(fmt.Sprintf("time %d vouch(%d)", now, peer), ep,
		func(v *endpointView) { v.refVouch(peer, due) },
		func() { ep.vouch(now, peer) })
}

func diffGiveUp(ep *endpoint, now int64, peer int) error {
	i, _ := ep.index(peer)
	return diff(fmt.Sprintf("time %d giveUp(%d)", now, peer), ep,
		func(v *endpointView) { v.refGiveUp(peer) },
		func() { ep.giveUp(now, i) })
}

// vouchAll checks a differential vouch for every peer, as node 0 does once
// right after its restart re-arm.
func vouchAll(ep *endpoint, now int64, peers []int) error {
	for _, p := range peers {
		if err := diffVouch(ep, now, p); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint runs node 0's seeded checks at time now: the index invariant,
// then with some probability a differential vouch, and more rarely a
// differential give-up, for a peer drawn from peers. Nothing is sent to a
// peer that is not a neighbor, so none is given up on; such a draw marks
// the peer down as MarkDown does, for later vouches to rescind. forced
// reports whether it gave up on a neighbor that was up.
func checkpoint(rng *rand.Rand, peers []int, ep *endpoint, now int64) (forced bool, err error) {
	if err := view(ep).checkIndex(ep); err != nil {
		return false, err
	}
	switch r := rng.Intn(100); {
	case r == 0:
		p := peers[rng.Intn(len(peers))]
		if _, ok := ep.index(p); !ok {
			return false, diff(fmt.Sprintf("time %d markDown(%d)", now, p), ep,
				func(v *endpointView) { v.down[p] = true },
				func() { ep.markDown(p) })
		}
		forced = !ep.isDown(p)
		return forced, diffGiveUp(ep, now, p)
	case r < 30:
		return false, diffVouch(ep, now, peers[rng.Intn(len(peers))])
	}
	return false, nil
}

// hop is the chatter payload: how often a greeting has been answered.
type hop int

// chatterLimit bounds every greeting's chain of answers.
const chatterLimit = 24

// vouchScenario is one seeded lossy run of the differential rigs. want
// checks node 0's counters, less the give-ups the checkpoints forced, for
// proof that the scenario's path was taken.
type vouchScenario struct {
	name string
	plan *sim.FaultPlan
	opt  Options
	want func(c Counters, restarted bool) bool
}

// natural removes the checkpoints' forced give-ups from node 0's counters.
func natural(c Counters, forced int) Counters {
	c.PeersDown -= forced
	return c
}

// vouchGraph is connected and not complete, so gossip vouches for node 0
// name peers it has no link to.
func vouchGraph() *graph.Graph {
	return graph.ConnectedGNM(10, 24, rand.New(rand.NewSource(3)))
}

// vouchScenarios cover the index's stale-entry cases: acks landing after a
// vouch, a give-up rescinded by gossip or contact, and a restart re-arm
// followed by vouches, and send-once give-ups rescinded by contact. Node 1
// is a neighbor of node 0 in vouchGraph.
var vouchScenarios = []vouchScenario{
	{
		name: "ack-after-vouch",
		plan: &sim.FaultPlan{Seed: 5, Loss: 0.3, Dup: 0.1, Reorder: 2},
		want: func(c Counters, _ bool) bool { return c.Vouched > 0 && c.RTTSamples > 0 },
	},
	{
		name: "giveup-then-peerup",
		plan: &sim.FaultPlan{Seed: 6, Loss: 0.2, Crashes: []sim.Crash{{Node: 1, At: 3, RestartAt: 80}}},
		opt:  Options{RTO: 2, MaxRetries: 2},
		want: func(c Counters, _ bool) bool { return c.PeersDown > 0 && c.PeersUp > 0 && c.GaveUp > 0 },
	},
	{
		name: "restart-rearm",
		plan: &sim.FaultPlan{Seed: 7, Loss: 0.2, Crashes: []sim.Crash{{Node: 0, At: 6, RestartAt: 30}}},
		want: func(c Counters, restarted bool) bool { return restarted && c.Vouched > 0 },
	},
	{
		name: "send-once",
		plan: &sim.FaultPlan{Seed: 8, Loss: 0.1, Reorder: 4},
		opt:  Options{MaxRetries: NoRetries},
		want: func(c Counters, _ bool) bool { return c.PeersDown > 0 && c.PeersUp > 0 },
	},
}

// vouchPeers are the peers node 0 is asked to vouch for: its neighbors,
// itself, a non-neighbor of the graph and an id outside it.
func vouchPeers(g *graph.Graph) []int {
	peers := append(g.Neighbors(0), 0, 99)
	for v := 1; v < g.N(); v++ {
		if !g.HasEdge(0, v) {
			return append(peers, v)
		}
	}
	return peers
}

func TestVouchIndexMatchesFullScanSync(t *testing.T) {
	for _, sc := range vouchScenarios {
		t.Run(sc.name, func(t *testing.T) {
			g := vouchGraph()
			peers := vouchPeers(g)
			rng := rand.New(rand.NewSource(sc.plan.Seed))
			restarted := false
			wraps := make([]*Sync, g.N())
			eng := sim.NewSyncEngine(g, sc.plan.Seed, func(id int) sim.SyncNode {
				opt := sc.opt
				wraps[id] = NewSync(syncStepFunc(func(env *SyncEnv, inbox []sim.Message) bool {
					if env.Round == 0 {
						env.Broadcast(hop(0))
					}
					for _, m := range inbox {
						switch p := m.Payload.(type) {
						case hop:
							if p < chatterLimit {
								env.Send(m.From, p+1)
							}
						case sim.NodeRestarted:
							restarted = restarted || env.ID == 0
						}
					}
					return true
				}), &opt)
				return wraps[id]
			})
			eng.Workers = 1
			eng.Fault = sc.plan
			rearmChecked := false
			forced := 0
			var failed error
			eng.OnRound = func(int64) {
				w := wraps[0]
				if w.senv == nil || failed != nil {
					return
				}
				now := int64(w.senv.Round)
				if restarted && !rearmChecked {
					rearmChecked = true
					if failed = vouchAll(w.ep, now, peers); failed != nil {
						return
					}
				}
				var f bool
				if f, failed = checkpoint(rng, peers, w.ep, now); f {
					forced++
				}
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if failed != nil {
				t.Fatal(failed)
			}
			c := natural(wraps[0].Counters(), forced)
			t.Logf("node 0: restarted=%v forced give-ups=%d %+v", restarted, forced, c)
			if !sc.want(c, restarted) {
				t.Error("scenario path not taken at node 0")
			}
		})
	}
}

func TestVouchIndexMatchesFullScanAsync(t *testing.T) {
	for _, sc := range vouchScenarios {
		t.Run(sc.name, func(t *testing.T) {
			g := vouchGraph()
			peers := vouchPeers(g)
			rng := rand.New(rand.NewSource(sc.plan.Seed))
			restarted := false
			var node0 Counters
			forced := 0
			var failed error
			wraps := make([]*Async, g.N())
			eng := sim.NewAsyncEngine(g, sc.plan.Seed, func(id int) sim.AsyncNode {
				wraps[id] = NewAsync(asyncRunFunc(func(env *AsyncEnv) {
					env.Broadcast(hop(0))
					for {
						m, ok := env.Recv()
						if !ok {
							return
						}
						if p, isHop := m.Payload.(hop); isHop && p < chatterLimit {
							env.Send(m.From, p+1)
						}
						if env.ID != 0 {
							continue
						}
						// Failures end the run instead of calling t.Fatal:
						// this is a node goroutine, not the test's.
						now := env.Clock()
						if _, ok := m.Payload.(sim.NodeRestarted); ok {
							restarted = true
							failed = vouchAll(env.ep, now, peers)
						}
						if failed == nil {
							var f bool
							if f, failed = checkpoint(rng, peers, env.ep, now); f {
								forced++
							}
						}
						node0 = env.ep.c
						if failed != nil {
							env.FinishAll()
							return
						}
					}
				}), &sc.opt)
				return wraps[id]
			})
			eng.Fault = sc.plan
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if failed != nil {
				t.Fatal(failed)
			}
			// Every segment ends acked or given up on; one still in flight
			// lost its retransmission timer, as to a crash window without
			// the restart re-arm.
			if n := wraps[0].ep.inFlight; n > 0 {
				t.Errorf("node 0 ended with %d segments in flight", n)
			}
			c := natural(node0, forced)
			t.Logf("node 0: restarted=%v forced give-ups=%d %+v", restarted, forced, c)
			if !sc.want(c, restarted) {
				t.Error("scenario path not taken at node 0")
			}
		})
	}
}
