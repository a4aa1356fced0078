package transport

import (
	"fmt"
	"slices"

	"fdlsp/internal/sim"
)

// segment is one unacknowledged segment at a sender, held by value in its
// link's FIFO.
type segment struct {
	payload any
	round   int64 // sender's logical round (sync); -1 in async runs
	due     int64 // time of the next retransmission
	sentAt  int64 // time of the first transmission
	retries int32
	retried bool // ever retransmitted (Karn: no RTT sample then)
	live    bool // false once acknowledged or abandoned
}

// peer is an endpoint's state for one neighbor, both directions of the
// link. Segments are numbered per link from 0, so the outbound FIFO is
// indexed by seq and the inbound dedupe is a watermark plus a bitset.
type peer struct {
	// fifo[off:] holds the link's segments from seq head on, in seq order.
	// Acknowledged segments stay as dead entries until every earlier one is
	// gone too; a give-up empties the FIFO and head skips past it, so no
	// seq is ever issued twice on the link.
	fifo []segment
	off  int
	head int64
	// retrying lists the seqs whose retries went 0→1 since the last vouch.
	// It may hold stale ones (acked, abandoned or reset since), which are
	// skipped by looking the seq up in the FIFO.
	retrying []int64
	rtt      rttEstimator
	down     bool
	// heard is whether a frame ever arrived from the peer, lastHeard when
	// the latest did.
	heard     bool
	lastHeard int64
	// Inbound dedupe: every seq below seenBase arrived, and bit k of seen
	// marks seq seenBase+k. Full words are shifted out, so the bitset spans
	// only from the oldest missing seq to the newest arrival.
	seenBase int64
	seen     []uint64
}

// at returns the live segment seq of the link, or nil.
func (p *peer) at(seq int64) *segment {
	k := seq - p.head
	if k < 0 || k >= int64(len(p.fifo)-p.off) {
		return nil
	}
	if s := &p.fifo[p.off+int(k)]; s.live {
		return s
	}
	return nil
}

// push appends a segment and returns its seq. The dead prefix is reclaimed
// once it is at least half the FIFO, so a link with bounded traffic in
// flight reuses its backing array.
func (p *peer) push(s segment) int64 {
	if len(p.fifo) == cap(p.fifo) && p.off > 0 && 2*p.off >= len(p.fifo) {
		n := copy(p.fifo, p.fifo[p.off:])
		clear(p.fifo[n:])
		p.fifo, p.off = p.fifo[:n], 0
	}
	seq := p.head + int64(len(p.fifo)-p.off)
	p.fifo = append(p.fifo, s)
	return seq
}

// retire marks s dead and drops the FIFO's dead prefix.
func (p *peer) retire(s *segment) {
	s.live, s.payload = false, nil
	for p.off < len(p.fifo) && !p.fifo[p.off].live {
		p.off++
		p.head++
	}
	if p.off == len(p.fifo) {
		p.fifo, p.off = p.fifo[:0], 0
	}
}

// accept records inbound seq and reports whether it is new.
func (p *peer) accept(seq int64) bool {
	k := seq - p.seenBase
	if k < 0 {
		return false
	}
	w, bit := int(k>>6), uint64(1)<<(k&63)
	for w >= len(p.seen) {
		p.seen = append(p.seen, 0)
	}
	if p.seen[w]&bit != 0 {
		return false
	}
	p.seen[w] |= bit
	n := 0
	for n < len(p.seen) && p.seen[n] == ^uint64(0) {
		n++
	}
	if n > 0 {
		m := copy(p.seen, p.seen[n:])
		p.seen = p.seen[:m]
		p.seenBase += int64(n) << 6
	}
	return true
}

// ref names one segment by its link (the peer's position among the
// neighbors) and per-link seq.
type ref struct {
	peer int32
	seq  int64
}

// endpoint is one node's ARQ state machine, shared by both clock adapters.
// Time is an int64 the adapter supplies with every call: physical rounds
// under Sync, virtual time under Async. The endpoint never touches an
// engine: the adapter transmits the frames it returns, sends acks, arms
// timers, and delivers the PeerDown/PeerUp notices it hands to notify.
//
// Per-peer state is a dense table indexed by the peer's position in the
// sorted neighbor list. A peer the node has no link to can only be marked
// down (by MarkDown) and vouched up again (by gossip); those few ids live
// in the sorted cold list.
type endpoint struct {
	id        int
	neighbors []int  // sorted; the only peers ever sent to or heard from
	peers     []peer // by position in neighbors; nil until bind
	cold      []int  // sorted non-neighbors marked down (every id before bind)
	opt       Options
	c         Counters
	// order lists the segments in flight in first-send order, the order of
	// the due scan and the restart re-arm. It may hold dead refs, which
	// every walk drops; a full list is compacted before it grows.
	order    []ref
	inFlight int
	// heardList caches the vouch list of tick heardAt while heardOK.
	heardAt  int64
	heardOK  bool
	heardBuf []int
	nHeard   int // peers ever heard from
	// notify hands the adapter a PeerDown or PeerUp notice for its protocol
	// together with the matching trace event.
	notify func(m sim.Message, ev sim.Event)
}

func newEndpoint(opt Options) *endpoint {
	return &endpoint{opt: opt.withDefaults()}
}

// bind attaches the endpoint to its node once the engine has started it,
// and moves the neighbors marked down beforehand into the dense table.
func (ep *endpoint) bind(id int, neighbors []int, notify func(sim.Message, sim.Event)) {
	ep.id, ep.neighbors, ep.notify = id, neighbors, notify
	ep.peers = make([]peer, len(neighbors))
	cold := ep.cold[:0]
	for _, q := range ep.cold {
		if i, ok := ep.index(q); ok {
			ep.peers[i].down = true
		} else {
			cold = append(cold, q)
		}
	}
	ep.cold = cold
}

// index returns the position of peer id among the neighbors; before bind
// there are none.
func (ep *endpoint) index(id int) (int, bool) { return slices.BinarySearch(ep.neighbors, id) }

// markDown pre-marks peer id as unreachable, without a notice.
func (ep *endpoint) markDown(id int) {
	if i, ok := ep.index(id); ok {
		ep.peers[i].down = true
	} else if j, found := slices.BinarySearch(ep.cold, id); !found {
		ep.cold = slices.Insert(ep.cold, j, id)
	}
}

// isDown reports whether the endpoint has given up on peer id.
func (ep *endpoint) isDown(id int) bool {
	if i, ok := ep.index(id); ok {
		return ep.peers[i].down
	}
	_, found := slices.BinarySearch(ep.cold, id)
	return found
}

// rto returns the link's current adaptive retransmission timeout.
func (ep *endpoint) rto(p *peer) int64 { return p.rtt.rto(ep.opt.RTO, ep.opt.MaxRTO) }

// rtoFor is rto by peer id.
func (ep *endpoint) rtoFor(id int) int64 {
	if i, ok := ep.index(id); ok {
		return ep.rto(&ep.peers[i])
	}
	return ep.opt.RTO
}

// lookup returns the live segment r names, or nil.
func (ep *endpoint) lookup(r ref) *segment { return ep.peers[r.peer].at(r.seq) }

// open wraps one protocol payload as a sequenced segment to peer "to" and
// returns the frame to transmit; ok is false when the peer is down (the
// protocol has had the PeerDown notice) and nothing is sent.
func (ep *endpoint) open(now int64, to int, payload any, round int64) (f seg, ok bool) {
	i, ok := ep.index(to)
	if !ok {
		if ep.isDown(to) {
			return seg{}, false
		}
		panic(fmt.Sprintf("transport: node %d sending to non-neighbor %d", ep.id, to))
	}
	p := &ep.peers[i]
	if p.down {
		return seg{}, false
	}
	seq := p.push(segment{payload: payload, round: round, due: now + ep.rto(p), sentAt: now, live: true})
	ep.track(ref{peer: int32(i), seq: seq})
	ep.c.Segments++
	ep.inFlight++
	if ep.inFlight > ep.c.MaxInFlight {
		ep.c.MaxInFlight = ep.inFlight
	}
	return seg{Seq: seq, Round: round, Payload: payload, Heard: ep.heardList(now)}, true
}

// track appends r to the send order. A full list is first compacted to the
// live refs and left with room for as many appends as it keeps, so a send
// costs amortized O(1) lookups even where no due scan runs (async).
func (ep *endpoint) track(r ref) {
	if len(ep.order) == cap(ep.order) {
		live := ep.order[:0]
		for _, q := range ep.order {
			if ep.lookup(q) != nil {
				live = append(live, q)
			}
		}
		ep.order = slices.Grow(live, len(live)+1)
	}
	ep.order = append(ep.order, r)
}

// ack retires segment q of the link to peer "from", which acknowledged it.
func (ep *endpoint) ack(now int64, from int, q int64) {
	i, ok := ep.index(from)
	if !ok {
		return
	}
	p := &ep.peers[i]
	if s := p.at(q); s != nil {
		if !s.retried {
			// Karn's rule: only never-retransmitted segments sample RTT.
			p.rtt.observe(now - s.sentAt)
			ep.c.RTTSamples++
		}
		p.retire(s)
		ep.inFlight--
	}
	ep.heard(now, i)
}

// receive takes in segment f from peer "from" and reports whether its
// payload is new. The adapter sends the ack first, for duplicates too: the
// peer may have lost the previous one.
func (ep *endpoint) receive(now int64, from int, f seg) bool {
	ep.c.Acks++
	i, ok := ep.index(from)
	if !ok {
		panic(fmt.Sprintf("transport: node %d received from non-neighbor %d", ep.id, from))
	}
	ep.heard(now, i)
	if ep.opt.VouchWindow >= 0 {
		// Heard is sorted, as is the neighbor list, so one merge walk finds
		// each vouched neighbor's position; it restarts should Heard descend.
		j := 0
		for k, q := range f.Heard {
			if k > 0 && q < f.Heard[k-1] {
				j = 0
			}
			for j < len(ep.neighbors) && ep.neighbors[j] < q {
				j++
			}
			if j < len(ep.neighbors) && ep.neighbors[j] == q {
				ep.vouchAt(now, j)
			} else if q != ep.id {
				ep.vouchCold(now, q)
			}
		}
	}
	if !ep.peers[i].accept(f.Seq) {
		ep.c.DupDropped++
		return false
	}
	return true
}

// heard records direct contact with neighbor i: its liveness clock
// refreshes and the retry budgets of segments still in flight to it reset —
// evidence the peer is up means pending losses were the link, not the peer.
func (ep *endpoint) heard(now int64, i int) {
	p := &ep.peers[i]
	if !p.heard {
		p.heard = true
		ep.nHeard++
		ep.heardOK = false
	} else if now-p.lastHeard > ep.opt.VouchWindow {
		ep.heardOK = false // the peer rejoins this tick's vouch list
	}
	p.lastHeard = now
	ep.vouchAt(now, i)
}

// vouchCold applies liveness evidence for a non-neighbor: it has nothing in
// flight, only a MarkDown to rescind.
func (ep *endpoint) vouchCold(now int64, id int) {
	if len(ep.cold) == 0 {
		return
	}
	if j, found := slices.BinarySearch(ep.cold, id); found {
		ep.cold = slices.Delete(ep.cold, j, j+1)
		ep.c.PeersUp++
		ep.verdict(now, id, PeerUp{Peer: id}, sim.EventPeerUp)
	}
}

// vouchAt applies liveness evidence for neighbor i: reset retry budgets of
// its in-flight segments and rescind an earlier give-up with a PeerUp
// notice. Only segments that were retransmitted since the last reset carry
// a budget to reset, and retrying lists exactly those (plus stale seqs), so
// a vouch costs O(retried segments to the peer). Each reset is independent
// of the others, so visiting them in list order leaves the same state as
// any order.
func (ep *endpoint) vouchAt(now int64, i int) {
	p := &ep.peers[i]
	if len(p.retrying) > 0 {
		for _, q := range p.retrying {
			if s := p.at(q); s != nil && s.retries > 0 {
				s.retries = 0
				s.retried = true // budget reset, but Karn still bars sampling
				s.due = now + ep.rto(p)
				ep.c.Vouched++
			}
		}
		p.retrying = p.retrying[:0]
	}
	if p.down {
		p.down = false
		ep.c.PeersUp++
		ep.verdict(now, ep.neighbors[i], PeerUp{Peer: ep.neighbors[i]}, sim.EventPeerUp)
	}
}

// giveUp marks neighbor i unreachable, abandons its in-flight segments, and
// issues the PeerDown notice.
func (ep *endpoint) giveUp(now int64, i int) {
	p := &ep.peers[i]
	if p.down {
		return
	}
	p.down = true
	ep.c.PeersDown++
	for k := p.off; k < len(p.fifo); k++ {
		if p.fifo[k].live {
			ep.c.GaveUp++
			ep.inFlight--
		}
	}
	p.head += int64(len(p.fifo) - p.off)
	clear(p.fifo)
	p.fifo, p.off = p.fifo[:0], 0
	p.retrying = p.retrying[:0]
	ep.verdict(now, ep.neighbors[i], PeerDown{Peer: ep.neighbors[i]}, sim.EventPeerDown)
}

func (ep *endpoint) verdict(now int64, peer int, notice any, kind sim.EventKind) {
	ep.notify(sim.Message{From: peer, To: ep.id, When: now, Payload: notice},
		sim.Event{Kind: kind, Time: now, From: ep.id, To: peer})
}

// retransmit handles segment r (s, in flight) at its due time: it gives up
// on the peer once the retry budget is spent, and otherwise returns the
// frame to send again, with s.due moved out by the backed-off timeout.
func (ep *endpoint) retransmit(now int64, r ref, s *segment) (f seg, ok bool) {
	if int(s.retries) >= ep.opt.MaxRetries {
		ep.giveUp(now, int(r.peer))
		return seg{}, false
	}
	p := &ep.peers[r.peer]
	s.retries++
	if s.retries == 1 {
		p.retrying = append(p.retrying, r.seq)
	}
	s.retried = true
	ep.c.Retries++
	s.due = now + ep.opt.backoff(ep.rto(p), int(s.retries))
	return seg{Seq: r.seq, Round: s.round, Payload: s.payload, Heard: ep.heardList(now)}, true
}

// retransmitDue retransmits every segment due at now, in first-send order,
// handing each frame to send with its destination, and drops the dead refs
// it walks past.
func (ep *endpoint) retransmitDue(now int64, send func(to int, f seg)) {
	live := ep.order[:0]
	for _, r := range ep.order {
		s := ep.lookup(r)
		if s == nil {
			continue
		}
		live = append(live, r)
		if now >= s.due {
			if f, ok := ep.retransmit(now, r, s); ok {
				send(ep.neighbors[r.peer], f)
			}
		}
	}
	ep.order = live
}

// restart re-arms everything in flight after this node's own outage: the
// unanswered retransmissions ran into the outage, not into dead peers, so
// every segment gets a fresh retry budget and is due one timeout from now.
// rearm, when set, is called per segment in first-send order with its
// destination, seq and timeout.
func (ep *endpoint) restart(now int64, rearm func(to int, seq, after int64)) {
	live := ep.order[:0]
	for _, r := range ep.order {
		s := ep.lookup(r)
		if s == nil {
			continue
		}
		live = append(live, r)
		s.retries = 0
		s.retried = true
		s.due = now + ep.rto(&ep.peers[r.peer])
		if rearm != nil {
			rearm(ep.neighbors[r.peer], r.seq, s.due-now)
		}
	}
	ep.order = live
	for i := range ep.peers {
		ep.peers[i].retrying = ep.peers[i].retrying[:0]
	}
}

// heardList returns the gossip vouch list of tick now: the neighbors heard
// from within VouchWindow, sorted, nil when there are none. The list may
// name the frame's destination, whose receive skips its own id. One list
// serves every frame of the tick and is never written after it is built —
// a change makes a fresh one — so frames share it safely.
func (ep *endpoint) heardList(now int64) []int {
	if ep.opt.VouchWindow < 0 || ep.nHeard == 0 {
		return nil
	}
	if ep.heardOK && ep.heardAt == now {
		return ep.heardBuf
	}
	var out []int
	for i := range ep.peers {
		if p := &ep.peers[i]; p.heard && now-p.lastHeard <= ep.opt.VouchWindow {
			if out == nil {
				out = make([]int, 0, ep.nHeard)
			}
			out = append(out, ep.neighbors[i])
		}
	}
	ep.heardAt, ep.heardOK, ep.heardBuf = now, true, out
	return out
}
