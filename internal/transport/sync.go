package transport

import (
	"math/rand"
	"slices"

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

	send func(to int, payload any)
	down func(peer int) bool
}

// Send transmits payload for delivery in the next logical round.
func (e *SyncEnv) Send(to int, payload any) { e.send(to, payload) }

// Broadcast sends payload to every neighbor.
func (e *SyncEnv) Broadcast(payload any) {
	for _, u := range e.Neighbors {
		e.Send(u, payload)
	}
}

// Down reports whether the transport has given up on peer; always false in
// direct mode.
func (e *SyncEnv) Down(peer int) bool { return e.down(peer) }

// syncSeg is one unacknowledged segment at a synchronous sender.
type syncSeg struct {
	to      int
	payload any
	round   int64 // logical round the segment belongs to
	retries int
	due     int  // physical round of the next retransmission
	sentAt  int  // physical round of the first transmission
	retried bool // ever retransmitted (Karn: no RTT sample then)
}

// Sync adapts a SyncProto to sim.SyncNode. In reliable mode it implements
// the full ARQ machinery per physical round and participates in the
// engine's RoundGate synchronizer; in direct mode it is a thin shim.
type Sync struct {
	proto    SyncProto
	opt      Options
	reliable bool

	c       Counters
	nextSeq int64
	pending map[int64]*syncSeg
	// retrying and outbound index pending by peer so liveness evidence and
	// give-ups touch one peer's segments, not everything in flight. Both
	// hold seqs and may hold stale ones (acked, abandoned or reset since),
	// which are skipped by looking the seq up in pending.
	retrying  map[int][]int64 // seqs whose retries went 0→1 since the last vouch
	outbound  map[int][]int64 // seqs sent to the peer, ascending; compacted by track
	seqs      []int64         // per-round scratch for the retransmit scan
	seen      map[int]map[int64]struct{}
	down      map[int]bool
	rtt       map[int]*rttEstimator
	lastHeard map[int]int   // physical round a frame last arrived from peer
	events    []sim.Event   // transport trace events, drained by the engine
	buffer    []sim.Message // next logical round's inbox, accumulating
	logical   int           // last delivered logical round
	protoDone bool
	env       SyncEnv
	// senv is the engine env of the physical round being stepped. The
	// protocol-facing env and its send/down closures are built once and
	// reach the current engine env through this field, so Step stops
	// allocating two closures per node per round.
	senv *sim.SyncEnv
}

// NewSync wraps proto for the synchronous engine. opt == nil selects direct
// passthrough; otherwise the reliable endpoint runs with *opt (zero value =
// defaults).
func NewSync(proto SyncProto, opt *Options) *Sync {
	w := &Sync{proto: proto, logical: -1}
	if opt != nil {
		w.reliable = true
		w.opt = opt.withDefaults()
		w.pending = make(map[int64]*syncSeg)
		w.retrying = make(map[int][]int64)
		w.outbound = make(map[int][]int64)
		w.seen = make(map[int]map[int64]struct{})
		w.down = make(map[int]bool)
		w.rtt = make(map[int]*rttEstimator)
		w.lastHeard = make(map[int]int)
	}
	return w
}

// Rebind points a direct-mode wrapper at a new protocol instance, for
// drivers that run several protocol phases over one persistent engine (the
// cached env closures stay valid because the engine reuses its per-node
// state across phases). Reliable endpoints must not be rebound: their ARQ
// state — sequence numbers, dedup windows, peer verdicts, RTT estimators —
// is per-run.
func (w *Sync) Rebind(proto SyncProto) {
	if w.reliable {
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

// rtoFor returns the link's current adaptive retransmission timeout.
func (w *Sync) rtoFor(peer int) int64 {
	if e := w.rtt[peer]; e != nil {
		return e.rto(w.opt.RTO, w.opt.MaxRTO)
	}
	return w.opt.RTO
}

// heard records direct contact with a peer: its liveness clock refreshes
// and the retry budgets of segments still in flight to it reset — evidence
// the peer is up means pending losses were the link, not the peer.
func (w *Sync) heard(env *sim.SyncEnv, peer int) {
	w.lastHeard[peer] = env.Round
	w.vouch(env, peer)
}

// vouch applies liveness evidence for a peer: reset retry budgets of its
// in-flight segments and rescind an earlier give-up with a PeerUp notice.
// Only segments that were retransmitted since the last reset carry a budget
// to reset, and retrying lists exactly those (plus stale seqs), so a vouch
// costs O(retried segments to peer). Each reset is independent of the
// others, so visiting them in list order leaves the same state as any order.
func (w *Sync) vouch(env *sim.SyncEnv, peer int) {
	if seqs := w.retrying[peer]; len(seqs) > 0 {
		for _, q := range seqs {
			if s := w.pending[q]; s != nil && s.retries > 0 {
				s.retries = 0
				s.retried = true // budget reset, but Karn still bars sampling
				s.due = env.Round + int(w.rtoFor(peer))
				w.c.Vouched++
			}
		}
		w.retrying[peer] = seqs[:0]
	}
	if w.down[peer] {
		delete(w.down, peer)
		w.c.PeersUp++
		w.buffer = append(w.buffer, sim.Message{From: peer, To: env.ID, Payload: PeerUp{Peer: peer}})
		w.events = append(w.events, sim.Event{Kind: sim.EventPeerUp, Time: int64(env.Round), From: env.ID, To: peer})
	}
}

// heardList builds the gossip vouch list for a frame to "to": peers heard
// from within VouchWindow, sorted, excluding the destination itself. Only
// neighbors are ever heard from, so walking the sorted neighbor list yields
// the list in order. The slice is freshly allocated per frame — payloads
// never alias endpoint state.
func (w *Sync) heardList(env *sim.SyncEnv, to int) []int {
	if w.opt.VouchWindow < 0 || len(w.lastHeard) == 0 {
		return nil
	}
	var out []int
	for _, q := range env.Neighbors {
		if at, ok := w.lastHeard[q]; ok && q != to && int64(env.Round-at) <= w.opt.VouchWindow {
			if out == nil {
				out = make([]int, 0, len(w.lastHeard))
			}
			out = append(out, q)
		}
	}
	return out
}

// Counters returns the endpoint's accounting (zero in direct mode).
func (w *Sync) Counters() Counters { return w.c }

// MarkDown pre-marks peers as unreachable before the run starts. Drivers
// composing multiple engine runs use it to carry crash knowledge from one
// phase into the next, so every node skips the full retry-and-give-up cycle
// against peers already known dead. No PeerDown notice is generated and the
// peers are not counted in PeersDown: the protocol driver already knows.
// No-op in direct mode.
func (w *Sync) MarkDown(peers ...int) {
	if !w.reliable {
		return
	}
	for _, p := range peers {
		w.down[p] = true
	}
}

// GateReady implements sim.RoundGate: the node has no unacknowledged
// outbound segments, so the global logical round may advance.
func (w *Sync) GateReady() bool { return !w.reliable || len(w.pending) == 0 }

// Step implements sim.SyncNode, executing one physical round: ack and
// buffer arriving segments, retransmit due ones, and — when the engine's
// synchronizer opens the next logical round — deliver the buffered inbox to
// the protocol.
func (w *Sync) Step(env *sim.SyncEnv, inbox []sim.Message) bool {
	// The engine hands each node a stable env for the whole run; caching it
	// lets the wrapper env's send closure be built once instead of per
	// round. It is only dereferenced inside Step, on the owning goroutine.
	//lint:ignore envowner cached for the prebuilt send closure, used only within Step on the owning goroutine
	w.senv = env
	if !w.reliable {
		if w.env.send == nil {
			w.env = SyncEnv{
				ID: env.ID, Neighbors: env.Neighbors, Rand: env.Rand,
				send: func(to int, p any) { w.senv.Send(to, p) },
				down: func(int) bool { return false },
			}
		}
		w.env.Round = env.Round
		return w.proto.Step(&w.env, inbox)
	}

	for _, m := range inbox {
		switch p := m.Payload.(type) {
		case ack:
			if s := w.pending[p.Seq]; s != nil && !s.retried {
				// Karn's rule: only never-retransmitted segments sample RTT.
				est := w.rtt[s.to]
				if est == nil {
					est = &rttEstimator{}
					w.rtt[s.to] = est
				}
				est.observe(int64(env.Round - s.sentAt))
				w.c.RTTSamples++
			}
			delete(w.pending, p.Seq)
			w.heard(env, m.From)
		case seg:
			// Always ack, even duplicates: the peer may have lost our
			// previous ack.
			w.c.Acks++
			env.Send(m.From, ack{Seq: p.Seq})
			w.heard(env, m.From)
			if w.opt.VouchWindow >= 0 {
				for _, q := range p.Heard {
					if q != env.ID {
						w.vouch(env, q)
					}
				}
			}
			seen := w.seen[m.From]
			if seen == nil {
				seen = make(map[int64]struct{})
				w.seen[m.From] = seen
			}
			if _, dup := seen[p.Seq]; dup {
				w.c.DupDropped++
				continue
			}
			seen[p.Seq] = struct{}{}
			w.buffer = append(w.buffer, sim.Message{From: m.From, To: env.ID, Payload: p.Payload})
		default:
			// Driver and engine injections (From == -1) bypass peer
			// endpoints. A restart notice additionally refreshes the retry
			// budget of everything still in flight: the unanswered
			// retransmissions ran into our own outage, not dead peers.
			if _, restarted := m.Payload.(sim.NodeRestarted); restarted {
				for _, s := range w.pending {
					s.retries = 0
					s.retried = true
					s.due = env.Round + int(w.rtoFor(s.to))
				}
				clear(w.retrying)
			}
			w.buffer = append(w.buffer, m)
		}
	}

	// Retransmit due segments in sequence order (deterministic), giving up
	// on peers that exhausted their retry budget.
	if len(w.pending) > 0 {
		seqs := w.seqs[:0]
		for q := range w.pending {
			seqs = append(seqs, q)
		}
		slices.Sort(seqs)
		w.seqs = seqs
		for _, q := range seqs {
			s, live := w.pending[q]
			if !live || env.Round < s.due {
				continue
			}
			if s.retries >= w.opt.MaxRetries {
				w.giveUp(env, s.to)
				continue
			}
			s.retries++
			if s.retries == 1 {
				w.retrying[s.to] = append(w.retrying[s.to], q)
			}
			s.retried = true
			w.c.Retries++
			env.Send(s.to, seg{Seq: q, Round: s.round, Payload: s.payload, Heard: w.heardList(env, s.to)})
			s.due = env.Round + int(w.opt.backoff(w.rtoFor(s.to), s.retries))
		}
	}

	// The synchronizer opened the next logical round: flush the buffered
	// inbox to the protocol and wrap its sends as fresh segments.
	if env.Advance {
		w.logical++
		flush := w.buffer
		w.buffer = nil
		sim.SortByFrom(flush)
		for i := range flush {
			flush[i].When = int64(w.logical)
		}
		if w.env.send == nil {
			w.env = SyncEnv{
				ID: env.ID, Neighbors: env.Neighbors, Rand: env.Rand,
				send: func(to int, p any) { w.sendSeg(w.senv, to, p) },
				down: func(peer int) bool { return w.down[peer] },
			}
		}
		w.env.Round = w.logical
		w.protoDone = w.proto.Step(&w.env, flush)
	}
	return w.protoDone && len(w.pending) == 0 && len(w.buffer) == 0
}

// sendSeg wraps one protocol payload as a sequenced segment.
func (w *Sync) sendSeg(env *sim.SyncEnv, to int, payload any) {
	if w.down[to] {
		return
	}
	w.nextSeq++
	w.pending[w.nextSeq] = &syncSeg{
		to: to, payload: payload, round: int64(w.logical),
		due: env.Round + int(w.rtoFor(to)), sentAt: env.Round,
	}
	track(w.outbound, to, w.nextSeq, w.pending)
	w.c.Segments++
	if n := len(w.pending); n > w.c.MaxInFlight {
		w.c.MaxInFlight = n
	}
	env.Send(to, seg{Seq: w.nextSeq, Round: int64(w.logical), Payload: payload, Heard: w.heardList(env, to)})
}

// giveUp marks peer unreachable, abandons its in-flight segments, and
// queues the PeerDown notice for the next logical inbox.
func (w *Sync) giveUp(env *sim.SyncEnv, peer int) {
	if w.down[peer] {
		return
	}
	w.down[peer] = true
	w.c.PeersDown++
	for _, q := range w.outbound[peer] {
		if _, live := w.pending[q]; live {
			delete(w.pending, q)
			w.c.GaveUp++
		}
	}
	delete(w.outbound, peer)
	delete(w.retrying, peer)
	w.buffer = append(w.buffer, sim.Message{From: peer, To: env.ID, Payload: PeerDown{Peer: peer}})
	w.events = append(w.events, sim.Event{Kind: sim.EventPeerDown, Time: int64(env.Round), From: env.ID, To: peer})
}
