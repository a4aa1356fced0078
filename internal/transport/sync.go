package transport

import (
	"math/rand"

	"fdlsp/internal/sim"
)

// SyncProto is a round-based protocol written against the transport
// surface: the same Step contract as sim.SyncNode, but Round is a *logical*
// round — in reliable mode the transport stretches each logical round over
// as many physical rounds as retransmission needs, and the engine's
// RoundGate synchronizer opens the next one only when the whole network has
// settled. Direct mode maps logical rounds 1:1 onto physical rounds.
type SyncProto interface {
	Step(env *SyncEnv, inbox []sim.Message) bool
}

// SyncEnv is the protocol's per-step handle; Round counts logical rounds.
type SyncEnv struct {
	ID        int
	Round     int
	Neighbors []int
	Rand      *rand.Rand

	w *Sync
}

// Send transmits payload for delivery in the next logical round.
func (e *SyncEnv) Send(to int, payload any) { e.w.send(to, payload) }

// Broadcast sends payload to every neighbor.
func (e *SyncEnv) Broadcast(payload any) {
	for _, u := range e.Neighbors {
		e.Send(u, payload)
	}
}

// Down reports whether the transport has given up on peer; always false in
// direct mode.
func (e *SyncEnv) Down(peer int) bool { return e.w.ep != nil && e.w.ep.isDown(peer) }

// Sync adapts a SyncProto to sim.SyncNode with physical rounds as the
// endpoint's clock: each round it feeds arrivals to the endpoint, scans for
// due retransmissions, and — when the engine's RoundGate synchronizer opens
// the next logical round — delivers the buffered inbox to the protocol. In
// direct mode (no endpoint) it is a thin shim.
type Sync struct {
	proto     SyncProto
	ep        *endpoint     // nil = direct passthrough (reliable network)
	events    []sim.Event   // transport trace events, drained by the engine
	buffer    []sim.Message // next logical round's inbox, accumulating
	logical   int           // last delivered logical round
	protoDone bool
	env       SyncEnv
	// senv is the engine env of the physical round being stepped. The
	// protocol-facing env is built once and reaches the current engine env
	// through this field, so Step allocates nothing per node per round.
	senv *sim.SyncEnv
}

// NewSync wraps proto for the synchronous engine. opt == nil selects direct
// passthrough; otherwise the reliable endpoint runs with *opt (zero value =
// defaults).
func NewSync(proto SyncProto, opt *Options) *Sync {
	w := &Sync{proto: proto, logical: -1}
	if opt != nil {
		w.ep = newEndpoint(*opt)
	}
	return w
}

// notify queues a PeerDown/PeerUp notice for the next logical inbox and its
// trace event for the engine.
func (w *Sync) notify(m sim.Message, ev sim.Event) {
	w.buffer = append(w.buffer, m)
	w.events = append(w.events, ev)
}

// Rebind points a direct-mode wrapper at a new protocol instance, for
// drivers that run several protocol phases over one persistent engine (the
// cached env stays valid because the engine reuses its per-node state across
// phases). Reliable endpoints must not be rebound: their ARQ state —
// sequence numbers, dedup windows, peer verdicts, RTT estimators — is
// per-run.
func (w *Sync) Rebind(proto SyncProto) {
	if w.ep != nil {
		panic("transport: Rebind on a reliable endpoint")
	}
	w.proto = proto
	w.protoDone = false
}

// TakeEvents implements sim.EventSource: the engine drains queued transport
// events (peer-down, peer-up) after each round barrier in node-id order,
// keeping the trace deterministic across GOMAXPROCS.
func (w *Sync) TakeEvents() []sim.Event {
	evs := w.events
	w.events = nil
	return evs
}

// Counters returns the endpoint's accounting (zero in direct mode).
func (w *Sync) Counters() Counters {
	if w.ep == nil {
		return Counters{}
	}
	return w.ep.c
}

// MarkDown pre-marks peers as unreachable before the run starts. Drivers
// composing multiple engine runs use it to carry crash knowledge from one
// phase into the next, so every node skips the full retry-and-give-up cycle
// against peers already known dead. No PeerDown notice is generated and the
// peers are not counted in PeersDown: the protocol driver already knows.
// No-op in direct mode.
func (w *Sync) MarkDown(peers ...int) {
	if w.ep == nil {
		return
	}
	for _, p := range peers {
		w.ep.markDown(p)
	}
}

// GateReady implements sim.RoundGate: the node has no unacknowledged
// outbound segments, so the global logical round may advance.
func (w *Sync) GateReady() bool { return w.ep == nil || w.ep.inFlight == 0 }

// Step implements sim.SyncNode, executing one physical round: ack and
// buffer arriving segments, retransmit due ones, and — when the engine's
// synchronizer opens the next logical round — deliver the buffered inbox to
// the protocol.
func (w *Sync) Step(env *sim.SyncEnv, inbox []sim.Message) bool {
	// The engine hands each node a stable env for the whole run; caching it
	// lets the protocol env be built once instead of per round. It is only
	// dereferenced inside Step, on the owning goroutine.
	//lint:ignore envowner cached for the prebuilt protocol env, used only within Step on the owning goroutine
	w.senv = env
	ep := w.ep
	if w.env.w == nil {
		w.env = SyncEnv{ID: env.ID, Neighbors: env.Neighbors, Rand: env.Rand, w: w}
		if ep != nil {
			ep.bind(env.ID, env.Neighbors, w.notify)
		}
	}
	if ep == nil {
		w.env.Round = env.Round
		return w.proto.Step(&w.env, inbox)
	}
	now := int64(env.Round)

	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case ack:
			ep.ack(now, m.From, p.Seq)
		case seg:
			env.Send(m.From, ack{Seq: p.Seq})
			if ep.receive(now, m.From, p) {
				w.buffer = append(w.buffer, sim.Message{From: m.From, To: env.ID, Payload: p.Payload})
			}
		default:
			// Driver and engine injections (From == -1) bypass peer
			// endpoints. A restart notice additionally refreshes the retry
			// budget of everything still in flight.
			if _, restarted := m.Payload.(sim.NodeRestarted); restarted {
				ep.restart(now, nil)
			}
			w.buffer = append(w.buffer, m)
		}
	}

	// Retransmit due segments in first-send order (deterministic), giving
	// up on peers that exhausted their retry budget.
	ep.retransmitDue(now, func(to int, f seg) { env.Send(to, f) })

	// The synchronizer opened the next logical round: flush the buffered
	// inbox to the protocol and wrap its sends as fresh segments. The
	// protocol keeps no inbox past its Step (the engine reuses its inboxes
	// too), so the flushed buffer then collects the next logical round's.
	if env.Advance {
		w.logical++
		flush := w.buffer
		w.buffer = nil
		sim.SortByFrom(flush)
		for i := range flush {
			flush[i].When = int64(w.logical)
		}
		w.env.Round = w.logical
		w.protoDone = w.proto.Step(&w.env, flush)
		if w.buffer == nil {
			clear(flush)
			w.buffer = flush[:0]
		}
	}
	return w.protoDone && ep.inFlight == 0 && len(w.buffer) == 0
}

// send is SyncEnv.Send: straight onto the engine in direct mode, otherwise
// as a sequenced segment of the current logical round.
func (w *Sync) send(to int, payload any) {
	if w.ep == nil {
		w.senv.Send(to, payload)
	} else if f, ok := w.ep.open(int64(w.senv.Round), to, payload, int64(w.logical)); ok {
		w.senv.Send(to, f)
	}
}
