package transport

import (
	"math/rand"

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
// surface as sim.AsyncEnv, optionally backed by the reliable endpoint, with
// the node's virtual time as the endpoint's clock and engine timers as its
// retransmission alarms.
type AsyncEnv struct {
	ID        int
	Neighbors []int
	Rand      *rand.Rand

	sim     *sim.AsyncEnv
	ep      *endpoint     // nil = direct passthrough (reliable network)
	notices []sim.Message // PeerDown/PeerUp notices, delivered ahead of Recv
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
	if e.ep == nil {
		e.sim.Send(to, payload)
	} else if f, ok := e.ep.open(e.sim.Clock(), to, payload, -1); ok {
		e.sim.Send(to, f)
		e.sim.SetTimer(e.ep.rtoFor(to), retrans{Seq: f.Seq})
	}
}

// Broadcast sends payload to every neighbor.
func (e *AsyncEnv) Broadcast(payload any) {
	for _, u := range e.Neighbors {
		e.Send(u, payload)
	}
}

// Recv blocks until a protocol-level message arrives: a deduplicated
// segment payload, a PeerDown/PeerUp notice, or a raw injected message. The
// ARQ machinery (acks, retransmission timers, give-up) runs inside this loop.
func (e *AsyncEnv) Recv() (sim.Message, bool) {
	ep := e.ep
	if ep == nil {
		return e.sim.Recv()
	}
	for {
		if len(e.notices) > 0 {
			m := e.notices[0]
			e.notices = e.notices[1:]
			return m, true
		}
		m, ok := e.sim.Recv()
		if !ok {
			return sim.Message{}, false
		}
		now := e.sim.Clock()
		switch p := m.Payload.(type) {
		case ack:
			ep.ack(now, m.From, p.Seq)
		case seg:
			e.sim.Send(m.From, ack{Seq: p.Seq})
			if ep.receive(now, m.From, p) {
				return sim.Message{From: m.From, To: m.To, When: m.When, Payload: p.Payload}, true
			}
		case retrans:
			// A timer for a segment acked or abandoned since is stale.
			if s := ep.pending[p.Seq]; s != nil {
				if f, ok := ep.retransmit(now, p.Seq, s); ok {
					e.sim.Send(s.to, f)
					e.sim.SetTimer(s.due-now, retrans{Seq: p.Seq})
				}
			}
		default:
			// Raw traffic that never went through a peer endpoint: driver
			// and engine injections (From == -1) pass through untouched. A
			// restart notice additionally re-arms the retransmission chain:
			// the engine discards timers addressed into a crash window, so
			// every segment in flight across our own outage needs a fresh
			// timer or it would hang forever.
			if _, restarted := m.Payload.(sim.NodeRestarted); restarted {
				for _, q := range ep.restart(now) {
					e.sim.SetTimer(ep.pending[q].due-now, retrans{Seq: q})
				}
			}
			return m, true
		}
	}
}

// notify queues a PeerDown/PeerUp notice ahead of the next Recv and emits
// its trace event.
func (e *AsyncEnv) notify(m sim.Message, ev sim.Event) {
	e.notices = append(e.notices, m)
	e.sim.Emit(ev)
}

// Async adapts an AsyncProto to sim.AsyncNode, inserting the reliable
// endpoint when reliable mode is selected.
type Async struct {
	proto AsyncProto
	ep    *endpoint
}

// NewAsync wraps proto for the asynchronous engine. opt == nil selects
// direct passthrough (the fault-free fast path with zero transport
// overhead); otherwise the reliable endpoint runs with *opt (zero value =
// defaults).
func NewAsync(proto AsyncProto, opt *Options) *Async {
	a := &Async{proto: proto}
	if opt != nil {
		a.ep = newEndpoint(*opt)
	}
	return a
}

// MarkDown pre-marks peers as unreachable before the run starts, so the
// endpoint never attempts (and never has to give up on) contact with peers a
// driver already knows are dead. No PeerDown notice is generated for them.
// No-op in direct mode.
func (a *Async) MarkDown(peers ...int) {
	if a.ep == nil {
		return
	}
	for _, p := range peers {
		a.ep.down[p] = true
	}
}

// Run implements sim.AsyncNode.
func (a *Async) Run(senv *sim.AsyncEnv) {
	env := &AsyncEnv{ID: senv.ID, Neighbors: senv.Neighbors, Rand: senv.Rand, sim: senv, ep: a.ep}
	if a.ep != nil {
		a.ep.bind(senv.ID, senv.Neighbors, env.notify)
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
