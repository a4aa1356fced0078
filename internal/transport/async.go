package transport

import (
	"math/rand"
	"slices"

	"fdlsp/internal/sim"
)

// AsyncProto is an asynchronous protocol written against the transport
// surface. It mirrors sim.AsyncNode exactly — same Run shape, same env
// methods — so moving a protocol onto the reliable transport is a type
// change, not a rewrite.
type AsyncProto interface {
	Run(env *AsyncEnv)
}

// AsyncEnv is the protocol's handle in an asynchronous run: the same
// surface as sim.AsyncEnv, optionally backed by the reliable endpoint.
type AsyncEnv struct {
	ID        int
	Neighbors []int
	Rand      *rand.Rand

	sim *sim.AsyncEnv
	ep  *asyncEndpoint // nil = direct passthrough (reliable network)
}

// Clock returns the node's virtual time.
func (e *AsyncEnv) Clock() int64 { return e.sim.Clock() }

// FinishAll signals global termination, as sim.AsyncEnv.FinishAll.
func (e *AsyncEnv) FinishAll() { e.sim.FinishAll() }

// Down reports whether the transport has given up on peer; always false in
// direct mode.
func (e *AsyncEnv) Down(peer int) bool { return e.ep != nil && e.ep.down[peer] }

// Send transmits payload to a neighbor. In reliable mode the payload rides
// in a sequenced segment that is retransmitted until acknowledged or given
// up on; sends to a peer already given up on are silently suppressed (the
// protocol has received the PeerDown notice).
func (e *AsyncEnv) Send(to int, payload any) {
	ep := e.ep
	if ep == nil {
		e.sim.Send(to, payload)
		return
	}
	if ep.down[to] {
		return
	}
	ep.nextSeq++
	ep.pending[ep.nextSeq] = &outSeg{to: to, payload: payload, sentAt: e.sim.Clock()}
	track(ep.outbound, to, ep.nextSeq, ep.pending)
	ep.c.Segments++
	if n := len(ep.pending); n > ep.c.MaxInFlight {
		ep.c.MaxInFlight = n
	}
	e.sim.Send(to, seg{Seq: ep.nextSeq, Round: -1, Payload: payload, Heard: ep.heardList(e.sim.Clock(), to)})
	e.sim.SetTimer(ep.rtoFor(to), retrans{Seq: ep.nextSeq})
}

// Broadcast sends payload to every neighbor.
func (e *AsyncEnv) Broadcast(payload any) {
	for _, u := range e.Neighbors {
		e.Send(u, payload)
	}
}

// Recv blocks until a protocol-level message arrives: a deduplicated
// segment payload, a PeerDown notice, or a raw injected message. The ARQ
// machinery (acks, retransmission timers, give-up) runs inside this loop.
func (e *AsyncEnv) Recv() (sim.Message, bool) {
	ep := e.ep
	if ep == nil {
		return e.sim.Recv()
	}
	for {
		if len(ep.notices) > 0 {
			m := ep.notices[0]
			ep.notices = ep.notices[1:]
			return m, true
		}
		m, ok := e.sim.Recv()
		if !ok {
			return sim.Message{}, false
		}
		switch p := m.Payload.(type) {
		case ack:
			if s := ep.pending[p.Seq]; s != nil && !s.retried {
				// Karn's rule: only never-retransmitted segments sample RTT.
				est := ep.rtt[s.to]
				if est == nil {
					est = &rttEstimator{}
					ep.rtt[s.to] = est
				}
				est.observe(e.sim.Clock() - s.sentAt)
				ep.c.RTTSamples++
			}
			delete(ep.pending, p.Seq)
			e.heard(m.From)
		case seg:
			// Always ack, even duplicates: the peer may have lost our
			// previous ack.
			ep.c.Acks++
			e.sim.Send(m.From, ack{Seq: p.Seq})
			e.heard(m.From)
			if ep.opt.VouchWindow >= 0 {
				for _, q := range p.Heard {
					if q != e.ID {
						e.vouchFor(q)
					}
				}
			}
			seen := ep.seen[m.From]
			if seen == nil {
				seen = make(map[int64]struct{})
				ep.seen[m.From] = seen
			}
			if _, dup := seen[p.Seq]; dup {
				ep.c.DupDropped++
				continue
			}
			seen[p.Seq] = struct{}{}
			return sim.Message{From: m.From, To: m.To, When: m.When, Payload: p.Payload}, true
		case retrans:
			s, live := ep.pending[p.Seq]
			if !live {
				continue // acked (or abandoned) in the meantime
			}
			if s.retries >= ep.opt.MaxRetries {
				e.giveUp(s.to)
				continue
			}
			s.retries++
			if s.retries == 1 {
				ep.retrying[s.to] = append(ep.retrying[s.to], p.Seq)
			}
			s.retried = true
			ep.c.Retries++
			e.sim.Send(s.to, seg{Seq: p.Seq, Round: -1, Payload: s.payload, Heard: ep.heardList(e.sim.Clock(), s.to)})
			e.sim.SetTimer(ep.opt.backoff(ep.rtoFor(s.to), s.retries), retrans{Seq: p.Seq})
		default:
			// Raw traffic that never went through a peer endpoint: driver
			// and engine injections (From == -1) pass through untouched. A
			// restart notice additionally re-arms the retransmission chain:
			// the engine discards timers addressed into a crash window, so
			// every segment in flight across our own outage needs a fresh
			// timer (and a fresh retry budget) or it would hang forever.
			if _, restarted := m.Payload.(sim.NodeRestarted); restarted {
				seqs := ep.seqs[:0]
				for q := range ep.pending {
					seqs = append(seqs, q)
				}
				slices.Sort(seqs)
				ep.seqs = seqs
				for _, q := range seqs {
					s := ep.pending[q]
					s.retries = 0
					s.retried = true
					e.sim.SetTimer(ep.rtoFor(s.to), retrans{Seq: q})
				}
				clear(ep.retrying)
			}
			return m, true
		}
	}
}

// heard records direct contact with a peer: its liveness clock refreshes
// and the retry budgets of segments still in flight to it reset — evidence
// the peer is up means pending losses were the link, not the peer.
func (e *AsyncEnv) heard(peer int) {
	e.ep.lastHeard[peer] = e.sim.Clock()
	e.vouchFor(peer)
}

// vouchFor applies liveness evidence for a peer: reset retry budgets of its
// in-flight segments and rescind an earlier give-up with a PeerUp notice.
// As in Sync.vouch, only the peer's retried segments are visited.
func (e *AsyncEnv) vouchFor(peer int) {
	ep := e.ep
	if seqs := ep.retrying[peer]; len(seqs) > 0 {
		for _, q := range seqs {
			if s := ep.pending[q]; s != nil && s.retries > 0 {
				s.retries = 0
				s.retried = true
				ep.c.Vouched++
			}
		}
		ep.retrying[peer] = seqs[:0]
	}
	if ep.down[peer] {
		delete(ep.down, peer)
		ep.c.PeersUp++
		ep.notices = append(ep.notices,
			sim.Message{From: peer, To: e.ID, When: e.sim.Clock(), Payload: PeerUp{Peer: peer}})
		e.sim.Emit(sim.Event{Kind: sim.EventPeerUp, Time: e.sim.Clock(), From: e.ID, To: peer})
	}
}

// giveUp marks peer unreachable, abandons all in-flight segments to it, and
// queues the PeerDown notice for the protocol.
func (e *AsyncEnv) giveUp(peer int) {
	ep := e.ep
	if ep.down[peer] {
		return
	}
	ep.down[peer] = true
	ep.c.PeersDown++
	for _, q := range ep.outbound[peer] {
		if _, live := ep.pending[q]; live {
			delete(ep.pending, q)
			ep.c.GaveUp++
		}
	}
	delete(ep.outbound, peer)
	delete(ep.retrying, peer)
	ep.notices = append(ep.notices,
		sim.Message{From: peer, To: e.ID, When: e.sim.Clock(), Payload: PeerDown{Peer: peer}})
	e.sim.Emit(sim.Event{Kind: sim.EventPeerDown, Time: e.sim.Clock(), From: e.ID, To: peer})
}

// outSeg is one unacknowledged segment at the sender.
type outSeg struct {
	to      int
	payload any
	retries int
	sentAt  int64 // virtual time of the first transmission
	retried bool  // ever retransmitted (Karn: no RTT sample then)
}

// asyncEndpoint is the per-node reliable-transport state. retrying and
// outbound index pending by peer exactly as in Sync.
type asyncEndpoint struct {
	opt       Options
	c         Counters
	nextSeq   int64
	pending   map[int64]*outSeg
	retrying  map[int][]int64
	outbound  map[int][]int64
	seqs      []int64 // scratch for the restart re-arm
	seen      map[int]map[int64]struct{}
	down      map[int]bool
	rtt       map[int]*rttEstimator
	lastHeard map[int]int64 // virtual time a frame last arrived from peer
	neighbors []int         // sorted; the only peers ever heard from
	notices   []sim.Message
}

// rtoFor returns the link's current adaptive retransmission timeout.
func (ep *asyncEndpoint) rtoFor(peer int) int64 {
	if e := ep.rtt[peer]; e != nil {
		return e.rto(ep.opt.RTO, ep.opt.MaxRTO)
	}
	return ep.opt.RTO
}

// heardList builds the gossip vouch list for a frame to "to": peers heard
// from within VouchWindow, sorted, excluding the destination. Freshly
// allocated per frame — payloads never alias endpoint state.
func (ep *asyncEndpoint) heardList(now int64, to int) []int {
	if ep.opt.VouchWindow < 0 || len(ep.lastHeard) == 0 {
		return nil
	}
	var out []int
	for _, q := range ep.neighbors {
		if at, ok := ep.lastHeard[q]; ok && q != to && now-at <= ep.opt.VouchWindow {
			if out == nil {
				out = make([]int, 0, len(ep.lastHeard))
			}
			out = append(out, q)
		}
	}
	return out
}

// Async adapts an AsyncProto to sim.AsyncNode, inserting the reliable
// endpoint when reliable mode is selected.
type Async struct {
	proto    AsyncProto
	opt      Options
	reliable bool
	preDown  []int
	ep       *asyncEndpoint
}

// NewAsync wraps proto for the asynchronous engine. opt == nil selects
// direct passthrough (the fault-free fast path with zero transport
// overhead); otherwise the reliable endpoint runs with *opt (zero value =
// defaults).
func NewAsync(proto AsyncProto, opt *Options) *Async {
	a := &Async{proto: proto}
	if opt != nil {
		a.reliable = true
		a.opt = opt.withDefaults()
	}
	return a
}

// MarkDown pre-marks peers as unreachable before the run starts, so the
// endpoint never attempts (and never has to give up on) contact with peers a
// driver already knows are dead. No PeerDown notice is generated for them.
// No-op in direct mode.
func (a *Async) MarkDown(peers ...int) {
	if a.reliable {
		a.preDown = append(a.preDown, peers...)
	}
}

// Run implements sim.AsyncNode.
func (a *Async) Run(senv *sim.AsyncEnv) {
	env := &AsyncEnv{ID: senv.ID, Neighbors: senv.Neighbors, Rand: senv.Rand, sim: senv}
	if a.reliable {
		a.ep = &asyncEndpoint{
			opt:       a.opt,
			pending:   make(map[int64]*outSeg),
			retrying:  make(map[int][]int64),
			outbound:  make(map[int][]int64),
			seen:      make(map[int]map[int64]struct{}),
			down:      make(map[int]bool),
			rtt:       make(map[int]*rttEstimator),
			lastHeard: make(map[int]int64),
			neighbors: senv.Neighbors,
		}
		for _, p := range a.preDown {
			a.ep.down[p] = true
		}
		env.ep = a.ep
	}
	a.proto.Run(env)
}

// Counters returns the endpoint's accounting (zero in direct mode).
func (a *Async) Counters() Counters {
	if a.ep == nil {
		return Counters{}
	}
	return a.ep.c
}
