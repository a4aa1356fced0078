package transport

import (
	"slices"

	"fdlsp/internal/sim"
)

// segment is one unacknowledged segment at a sender.
type segment struct {
	to      int
	payload any
	round   int64 // sender's logical round (sync); -1 in async runs
	retries int
	due     int64 // time of the next retransmission
	sentAt  int64 // time of the first transmission
	retried bool  // ever retransmitted (Karn: no RTT sample then)
}

// endpoint is one node's ARQ state machine, shared by both clock adapters.
// Time is an int64 the adapter supplies with every call: physical rounds
// under Sync, virtual time under Async. The endpoint never touches an
// engine: the adapter transmits the frames it returns, sends acks, arms
// timers, and delivers the PeerDown/PeerUp notices it hands to notify.
type endpoint struct {
	id        int
	neighbors []int // sorted; the only peers ever heard from
	opt       Options
	c         Counters
	nextSeq   int64
	pending   map[int64]*segment
	// retrying and outbound index pending by peer so liveness evidence and
	// give-ups touch one peer's segments, not everything in flight. Both
	// hold seqs and may hold stale ones (acked, abandoned or reset since),
	// which are skipped by looking the seq up in pending.
	retrying  map[int][]int64 // seqs whose retries went 0→1 since the last vouch
	outbound  map[int][]int64 // seqs sent to the peer, ascending; compacted by track
	seqs      []int64         // scratch for in-order scans of pending
	seen      map[int]map[int64]struct{}
	down      map[int]bool
	rtt       map[int]*rttEstimator
	lastHeard map[int]int64 // time a frame last arrived from peer
	// notify hands the adapter a PeerDown or PeerUp notice for its protocol
	// together with the matching trace event.
	notify func(m sim.Message, ev sim.Event)
}

func newEndpoint(opt Options) *endpoint {
	return &endpoint{
		opt:       opt.withDefaults(),
		pending:   make(map[int64]*segment),
		retrying:  make(map[int][]int64),
		outbound:  make(map[int][]int64),
		seen:      make(map[int]map[int64]struct{}),
		down:      make(map[int]bool),
		rtt:       make(map[int]*rttEstimator),
		lastHeard: make(map[int]int64),
	}
}

// bind attaches the endpoint to its node once the engine has started it.
func (ep *endpoint) bind(id int, neighbors []int, notify func(sim.Message, sim.Event)) {
	ep.id, ep.neighbors, ep.notify = id, neighbors, notify
}

// rtoFor returns the link's current adaptive retransmission timeout.
func (ep *endpoint) rtoFor(peer int) int64 {
	if e := ep.rtt[peer]; e != nil {
		return e.rto(ep.opt.RTO, ep.opt.MaxRTO)
	}
	return ep.opt.RTO
}

// open wraps one protocol payload as a sequenced segment to peer "to" and
// returns the frame to transmit; ok is false when the peer is down (the
// protocol has had the PeerDown notice) and nothing is sent.
func (ep *endpoint) open(now int64, to int, payload any, round int64) (f seg, ok bool) {
	if ep.down[to] {
		return seg{}, false
	}
	ep.nextSeq++
	ep.pending[ep.nextSeq] = &segment{to: to, payload: payload, round: round, due: now + ep.rtoFor(to), sentAt: now}
	ep.track(to, ep.nextSeq)
	ep.c.Segments++
	if n := len(ep.pending); n > ep.c.MaxInFlight {
		ep.c.MaxInFlight = n
	}
	return seg{Seq: ep.nextSeq, Round: round, Payload: payload, Heard: ep.heardList(now, to)}, true
}

// ack retires the acknowledged segment q, received from peer "from".
func (ep *endpoint) ack(now int64, from int, q int64) {
	if s := ep.pending[q]; s != nil && !s.retried {
		// Karn's rule: only never-retransmitted segments sample RTT.
		est := ep.rtt[s.to]
		if est == nil {
			est = &rttEstimator{}
			ep.rtt[s.to] = est
		}
		est.observe(now - s.sentAt)
		ep.c.RTTSamples++
	}
	delete(ep.pending, q)
	ep.heard(now, from)
}

// receive takes in segment p from peer "from" and reports whether its
// payload is new. The adapter sends the ack first, for duplicates too: the
// peer may have lost the previous one.
func (ep *endpoint) receive(now int64, from int, p seg) bool {
	ep.c.Acks++
	ep.heard(now, from)
	if ep.opt.VouchWindow >= 0 {
		for _, q := range p.Heard {
			if q != ep.id {
				ep.vouch(now, q)
			}
		}
	}
	seen := ep.seen[from]
	if seen == nil {
		seen = make(map[int64]struct{})
		ep.seen[from] = seen
	}
	if _, dup := seen[p.Seq]; dup {
		ep.c.DupDropped++
		return false
	}
	seen[p.Seq] = struct{}{}
	return true
}

// heard records direct contact with a peer: its liveness clock refreshes
// and the retry budgets of segments still in flight to it reset — evidence
// the peer is up means pending losses were the link, not the peer.
func (ep *endpoint) heard(now int64, peer int) {
	ep.lastHeard[peer] = now
	ep.vouch(now, peer)
}

// vouch applies liveness evidence for a peer: reset retry budgets of its
// in-flight segments and rescind an earlier give-up with a PeerUp notice.
// Only segments that were retransmitted since the last reset carry a budget
// to reset, and retrying lists exactly those (plus stale seqs), so a vouch
// costs O(retried segments to peer). Each reset is independent of the
// others, so visiting them in list order leaves the same state as any order.
func (ep *endpoint) vouch(now int64, peer int) {
	if seqs := ep.retrying[peer]; len(seqs) > 0 {
		for _, q := range seqs {
			if s := ep.pending[q]; s != nil && s.retries > 0 {
				s.retries = 0
				s.retried = true // budget reset, but Karn still bars sampling
				s.due = now + ep.rtoFor(peer)
				ep.c.Vouched++
			}
		}
		ep.retrying[peer] = seqs[:0]
	}
	if ep.down[peer] {
		delete(ep.down, peer)
		ep.c.PeersUp++
		ep.verdict(now, peer, PeerUp{Peer: peer}, sim.EventPeerUp)
	}
}

// giveUp marks peer unreachable, abandons its in-flight segments, and
// issues the PeerDown notice.
func (ep *endpoint) giveUp(now int64, peer int) {
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
	ep.verdict(now, peer, PeerDown{Peer: peer}, sim.EventPeerDown)
}

func (ep *endpoint) verdict(now int64, peer int, notice any, kind sim.EventKind) {
	ep.notify(sim.Message{From: peer, To: ep.id, When: now, Payload: notice},
		sim.Event{Kind: kind, Time: now, From: ep.id, To: peer})
}

// retransmit handles segment q (s, in flight) at its due time: it gives up
// on the peer once the retry budget is spent, and otherwise returns the
// frame to send again, with s.due moved out by the backed-off timeout.
func (ep *endpoint) retransmit(now, q int64, s *segment) (f seg, ok bool) {
	if s.retries >= ep.opt.MaxRetries {
		ep.giveUp(now, s.to)
		return seg{}, false
	}
	s.retries++
	if s.retries == 1 {
		ep.retrying[s.to] = append(ep.retrying[s.to], q)
	}
	s.retried = true
	ep.c.Retries++
	s.due = now + ep.opt.backoff(ep.rtoFor(s.to), s.retries)
	return seg{Seq: q, Round: s.round, Payload: s.payload, Heard: ep.heardList(now, s.to)}, true
}

// inFlight returns the seqs in flight in ascending order, in a scratch slice
// valid until the next call.
func (ep *endpoint) inFlight() []int64 {
	seqs := ep.seqs[:0]
	for q := range ep.pending {
		seqs = append(seqs, q)
	}
	slices.Sort(seqs)
	ep.seqs = seqs
	return seqs
}

// restart re-arms everything in flight after this node's own outage: the
// unanswered retransmissions ran into the outage, not into dead peers, so
// every segment gets a fresh retry budget and is due one timeout from now.
// It returns the re-armed seqs in ascending order (see inFlight).
func (ep *endpoint) restart(now int64) []int64 {
	seqs := ep.inFlight()
	for _, q := range seqs {
		s := ep.pending[q]
		s.retries = 0
		s.retried = true
		s.due = now + ep.rtoFor(s.to)
	}
	clear(ep.retrying)
	return seqs
}

// heardList builds the gossip vouch list for a frame to "to": peers heard
// from within VouchWindow, sorted, excluding the destination itself. Only
// neighbors are ever heard from, so walking the sorted neighbor list yields
// the list in order. The slice is freshly allocated per frame — payloads
// never alias endpoint state.
func (ep *endpoint) heardList(now int64, to int) []int {
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

// track appends seq to peer's outbound index. A full list is first
// compacted to the seqs still in pending — the rest were acknowledged — and
// left with room for as many appends as it keeps, so a send costs amortized
// O(1) lookups and the list stays within about twice the peer's in-flight
// count.
func (ep *endpoint) track(peer int, seq int64) {
	out := ep.outbound[peer]
	if len(out) == cap(out) {
		live := out[:0]
		for _, q := range out {
			if ep.pending[q] != nil {
				live = append(live, q)
			}
		}
		out = slices.Grow(live, len(live)+1)
	}
	ep.outbound[peer] = append(out, seq)
}
