package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fdlsp/internal/sim"
)

// The differential test in this file drives the dense endpoint and the
// map-keyed reference model (refEndpoint, below) through the same operation
// script and compares every output: frames with their destination, payload,
// round and Heard list in send order, PeerDown/PeerUp notices with their
// events, counters, Down verdicts, restart re-arms, and every in-flight
// segment's retries and due time. Seqs are numbered per link by the one and
// per sender by the other, so segments are compared by handle: the index of
// the open that created them.

// script feeds an operation stream from bytes; past the end it reads zeros.
type script struct {
	data []byte
	pos  int
}

func (s *script) done() bool { return s.pos >= len(s.data) }

func (s *script) intn(n int) int {
	if s.done() {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b) % n
}

// handle is one opened segment under both numberings.
type handle struct {
	to     int
	seq    int64 // per link (endpoint)
	refSeq int64 // per sender (reference)
}

// frameOut is one transmitted frame, seqs replaced by the segment handle.
// The endpoint's Heard list may name the destination; receive skips its own
// id, so it is compared without it.
type frameOut struct {
	to, handle int
	round      int64
	payload    any
	heard      []int
}

// noticeOut is one notify call.
type noticeOut struct {
	m  sim.Message
	ev sim.Event
}

// inFrame is a frame a neighbor sent this node: its seq on the link and in
// the neighbor's global numbering.
type inFrame struct {
	seq, refSeq int64
}

// refScript is one differential run: node id with the given neighbors,
// candidates the ids it may be told about (neighbors, itself, other nodes
// and an id outside the graph).
type refScript struct {
	s          *script
	ep         *endpoint
	ref        *refEndpoint
	id         int
	neighbors  []int
	candidates []int
	now        int64
	handles    []handle
	byLink     map[segKey]int
	byRefSeq   map[int64]int
	inbound    map[int][]inFrame
	refSeqs    int64
	epNotes    []noticeOut
	refNotes   []noticeOut
	// sent keeps every Heard list the endpoint put on a frame, with a copy
	// taken at send time: a shared list must never change afterwards.
	sent     [][]int
	sentCopy [][]int
	payloads int
}

// newRefScript reads the options, the node's neighborhood and its MarkDown
// set from the head of the script, and binds both endpoints.
func newRefScript(data []byte) *refScript {
	s := &script{data: data}
	opt := Options{
		RTO:         []int64{0, 1, 2, 4}[s.intn(4)],
		MaxRetries:  []int{0, NoRetries, 1, 2}[s.intn(4)],
		VouchWindow: []int64{0, -1, 3, 12}[s.intn(4)],
	}
	r := &refScript{
		s: s, ep: newEndpoint(opt), ref: newRefEndpoint(opt), id: 5,
		byLink: map[segKey]int{}, byRefSeq: map[int64]int{}, inbound: map[int][]inFrame{},
	}
	for v := 0; v < 12; v++ {
		if v != r.id && s.intn(3) > 0 {
			r.neighbors = append(r.neighbors, v)
		}
	}
	if len(r.neighbors) == 0 {
		r.neighbors = []int{r.id + 1}
	}
	r.candidates = append(make([]int, 0, 13), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 99)
	// MarkDown runs before bind, with any ids.
	for _, q := range r.candidates {
		if s.intn(8) == 0 {
			r.ep.markDown(q)
			r.ref.down[q] = true
		}
	}
	r.ep.bind(r.id, r.neighbors, func(m sim.Message, ev sim.Event) {
		r.epNotes = append(r.epNotes, noticeOut{m, ev})
	})
	r.ref.bind(r.id, r.neighbors, func(m sim.Message, ev sim.Event) {
		r.refNotes = append(r.refNotes, noticeOut{m, ev})
	})
	return r
}

func (r *refScript) pick(xs []int) int { return xs[r.s.intn(len(xs))] }

// epFrame converts an endpoint frame to a frameOut.
func (r *refScript) epFrame(to int, f seg) frameOut {
	r.sent = append(r.sent, f.Heard)
	r.sentCopy = append(r.sentCopy, slices.Clone(f.Heard))
	var heard []int
	for _, q := range f.Heard {
		if q != to {
			heard = append(heard, q)
		}
	}
	return frameOut{to: to, handle: r.byLink[segKey{to, f.Seq}], round: f.Round, payload: f.Payload, heard: heard}
}

func (r *refScript) refFrame(to int, f seg) frameOut {
	var heard []int
	if len(f.Heard) > 0 {
		heard = f.Heard
	}
	return frameOut{to: to, handle: r.byRefSeq[f.Seq], round: f.Round, payload: f.Payload, heard: heard}
}

func sameFrames(op string, got, want []frameOut) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: endpoint sent %+v, reference %+v", op, got, want)
	}
	return nil
}

// open sends a payload to a neighbor, or to a non-neighbor already marked
// down (nothing is sent to either side then).
func (r *refScript) open() error {
	to := r.pick(r.candidates)
	if _, ok := r.ep.index(to); !ok && !r.ref.down[to] {
		return nil
	}
	r.payloads++
	round := int64(r.s.intn(4)) - 1
	f, ok := r.ep.open(r.now, to, r.payloads, round)
	g, refOK := r.ref.open(r.now, to, r.payloads, round)
	if ok != refOK {
		return fmt.Errorf("open(%d): endpoint ok=%v, reference ok=%v", to, ok, refOK)
	}
	if !ok {
		return nil
	}
	h := len(r.handles)
	r.handles = append(r.handles, handle{to: to, seq: f.Seq, refSeq: g.Seq})
	r.byLink[segKey{to, f.Seq}] = h
	r.byRefSeq[g.Seq] = h
	return sameFrames(fmt.Sprintf("open(%d)", to), []frameOut{r.epFrame(to, f)}, []frameOut{r.refFrame(to, g)})
}

// ack acknowledges an opened segment, possibly again or after a give-up.
func (r *refScript) ack() error {
	if len(r.handles) == 0 {
		return nil
	}
	h := r.handles[r.s.intn(len(r.handles))]
	r.ep.ack(r.now, h.to, h.seq)
	r.ref.ack(r.now, h.to, h.refSeq)
	return nil
}

// receive delivers a frame from a neighbor: its next one, or an earlier
// one again (a duplicate, or a retransmission overtaking a later frame).
// The Heard list names neighbors, this node, other nodes and an id outside
// the graph.
func (r *refScript) receive() error {
	from := r.pick(r.neighbors)
	in := r.inbound[from]
	k := r.s.intn(len(in) + 1)
	if k == len(in) {
		r.refSeqs += 1 + int64(r.s.intn(3))
		in = append(in, inFrame{seq: int64(len(in)), refSeq: r.refSeqs})
		r.inbound[from] = in
	}
	var heard []int
	for _, q := range r.candidates {
		if r.s.intn(4) == 0 {
			heard = append(heard, q)
		}
	}
	if r.s.intn(8) == 0 {
		// Senders list Heard sorted; a reversed list must still be vouched
		// for entry by entry, in list order.
		slices.Reverse(heard)
	}
	got := r.ep.receive(r.now, from, seg{Seq: in[k].seq, Heard: heard})
	want := r.ref.receive(r.now, from, seg{Seq: in[k].refSeq, Heard: heard})
	if got != want {
		return fmt.Errorf("receive(%d, frame %d): endpoint new=%v, reference new=%v", from, k, got, want)
	}
	return nil
}

// dueScan retransmits everything due, as the sync adapter does each round.
func (r *refScript) dueScan() error {
	var got, want []frameOut
	r.ep.retransmitDue(r.now, func(to int, f seg) { got = append(got, r.epFrame(to, f)) })
	for _, q := range r.ref.inFlight() {
		if s := r.ref.pending[q]; s != nil && r.now >= s.due {
			if f, ok := r.ref.retransmit(r.now, q, s); ok {
				want = append(want, r.refFrame(s.to, f))
			}
		}
	}
	return sameFrames("due scan", got, want)
}

// timer fires the async retransmission timer of an opened segment.
func (r *refScript) timer() error {
	if len(r.handles) == 0 {
		return nil
	}
	h := r.handles[r.s.intn(len(r.handles))]
	var got, want []frameOut
	i, _ := r.ep.index(h.to)
	link := ref{peer: int32(i), seq: h.seq}
	if s := r.ep.lookup(link); s != nil {
		if f, ok := r.ep.retransmit(r.now, link, s); ok {
			got = append(got, r.epFrame(h.to, f))
		}
	}
	if s := r.ref.pending[h.refSeq]; s != nil {
		if f, ok := r.ref.retransmit(r.now, h.refSeq, s); ok {
			want = append(want, r.refFrame(s.to, f))
		}
	}
	return sameFrames("timer", got, want)
}

// restart re-arms everything in flight; the re-arms must match in order.
func (r *refScript) restart() error {
	type rearm struct {
		handle int
		after  int64
	}
	var got, want []rearm
	r.ep.restart(r.now, func(to int, seq, after int64) {
		got = append(got, rearm{r.byLink[segKey{to, seq}], after})
	})
	for _, q := range r.ref.restart(r.now) {
		want = append(want, rearm{r.byRefSeq[q], r.ref.pending[q].due - r.now})
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("restart: endpoint re-armed %v, reference %v", got, want)
	}
	return nil
}

// step runs one scripted operation.
func (r *refScript) step() (string, error) {
	switch op := r.s.intn(32); {
	case op < 8:
		return "open", r.open()
	case op < 13:
		return "ack", r.ack()
	case op < 20:
		return "receive", r.receive()
	case op < 23:
		return "due scan", r.dueScan()
	case op < 25:
		return "timer", r.timer()
	case op < 29:
		r.now += int64(r.s.intn(6))
		return "advance", nil
	case op == 29:
		r.now += 20 + int64(r.s.intn(100))
		return "jump", nil
	case op == 30:
		q := r.pick(r.candidates)
		r.ep.vouch(r.now, q)
		r.ref.vouch(r.now, q)
		return fmt.Sprintf("vouch(%d)", q), nil
	default:
		return "restart", r.restart()
	}
}

// check compares the state both endpoints expose after an operation.
func (r *refScript) check() error {
	if r.ep.c != r.ref.c {
		return fmt.Errorf("counters: endpoint %+v, reference %+v", r.ep.c, r.ref.c)
	}
	if !reflect.DeepEqual(r.epNotes, r.refNotes) {
		return fmt.Errorf("notices: endpoint %+v, reference %+v", r.epNotes, r.refNotes)
	}
	for _, q := range r.candidates {
		if got, want := r.ep.isDown(q), r.ref.down[q]; got != want {
			return fmt.Errorf("Down(%d): endpoint %v, reference %v", q, got, want)
		}
	}
	got, want := map[int]segView{}, map[int]segView{}
	for k, s := range view(r.ep).segs {
		got[r.byLink[k]] = s
	}
	for q, s := range r.ref.pending {
		want[r.byRefSeq[q]] = segView{to: s.to, retries: s.retries, due: s.due, retried: s.retried}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("in flight: endpoint %+v, reference %+v", got, want)
	}
	return view(r.ep).checkIndex(r.ep)
}

// run plays the whole script and then checks that no Heard list changed
// after it was sent.
func (r *refScript) run() error {
	for step := 0; !r.s.done(); step++ {
		op, err := r.step()
		if err == nil {
			err = r.check()
		}
		if err != nil {
			return fmt.Errorf("step %d (%s, time %d): %w", step, op, r.now, err)
		}
	}
	for i, h := range r.sent {
		if !slices.Equal(h, r.sentCopy[i]) {
			return fmt.Errorf("frame %d: Heard list changed after send: %v, sent as %v", i, h, r.sentCopy[i])
		}
	}
	return nil
}

// refScriptData returns a seeded random script of n bytes.
func refScriptData(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestEndpointMatchesReference runs seeded operation scripts — opens, acks
// (repeated and after give-ups), new, duplicate and reordered receives
// with vouches for neighbors, non-neighbors and an id outside the graph,
// due scans and timer retransmissions through to give-up, direct vouches,
// restarts, MarkDown before bind, NoRetries and negative VouchWindow —
// against the dense endpoint and the map-keyed reference.
// The scripts must reach every path: the summed counters prove it.
func TestEndpointMatchesReference(t *testing.T) {
	var sum Counters
	for seed := int64(1); seed <= 200; seed++ {
		r := newRefScript(refScriptData(seed, 3000))
		if err := r.run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sum.add(r.ep.c)
	}
	t.Logf("summed counters: %+v", sum)
	if sum.Retries == 0 || sum.GaveUp == 0 || sum.PeersDown == 0 || sum.PeersUp == 0 ||
		sum.DupDropped == 0 || sum.RTTSamples == 0 || sum.Vouched == 0 {
		t.Errorf("a path was never taken: %+v", sum)
	}
}

func FuzzEndpointMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(refScriptData(seed, 600))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := newRefScript(data).run(); err != nil {
			t.Fatal(err)
		}
	})
}

// refSegment is one unacknowledged segment at a refEndpoint sender.
type refSegment struct {
	to      int
	payload any
	round   int64 // sender's logical round (sync); -1 in async runs
	retries int
	due     int64 // time of the next retransmission
	sentAt  int64 // time of the first transmission
	retried bool  // ever retransmitted (Karn: no RTT sample then)
}

// refEndpoint is the map-keyed ARQ endpoint the dense one replaced, kept as
// the reference model of TestEndpointMatchesReference. Seqs are global to
// the sender, every per-peer table is a map keyed by peer id, the receiver
// keeps every seq it has seen, and the due scan sorts the pending seqs.
// Time is an int64 the caller supplies with every call.
type refEndpoint struct {
	id        int
	neighbors []int // sorted; the only peers ever heard from
	opt       Options
	c         Counters
	nextSeq   int64
	pending   map[int64]*refSegment
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

func newRefEndpoint(opt Options) *refEndpoint {
	return &refEndpoint{
		opt:       opt.withDefaults(),
		pending:   make(map[int64]*refSegment),
		retrying:  make(map[int][]int64),
		outbound:  make(map[int][]int64),
		seen:      make(map[int]map[int64]struct{}),
		down:      make(map[int]bool),
		rtt:       make(map[int]*rttEstimator),
		lastHeard: make(map[int]int64),
	}
}

// bind attaches the refEndpoint to its node once the engine has started it.
func (ep *refEndpoint) bind(id int, neighbors []int, notify func(sim.Message, sim.Event)) {
	ep.id, ep.neighbors, ep.notify = id, neighbors, notify
}

// rtoFor returns the link's current adaptive retransmission timeout.
func (ep *refEndpoint) rtoFor(peer int) int64 {
	if e := ep.rtt[peer]; e != nil {
		return e.rto(ep.opt.RTO, ep.opt.MaxRTO)
	}
	return ep.opt.RTO
}

// open wraps one protocol payload as a sequenced refSegment to peer "to" and
// returns the frame to transmit; ok is false when the peer is down (the
// protocol has had the PeerDown notice) and nothing is sent.
func (ep *refEndpoint) open(now int64, to int, payload any, round int64) (f seg, ok bool) {
	if ep.down[to] {
		return seg{}, false
	}
	ep.nextSeq++
	ep.pending[ep.nextSeq] = &refSegment{to: to, payload: payload, round: round, due: now + ep.rtoFor(to), sentAt: now}
	ep.track(to, ep.nextSeq)
	ep.c.Segments++
	if n := len(ep.pending); n > ep.c.MaxInFlight {
		ep.c.MaxInFlight = n
	}
	return seg{Seq: ep.nextSeq, Round: round, Payload: payload, Heard: ep.heardList(now, to)}, true
}

// ack retires the acknowledged refSegment q, received from peer "from".
func (ep *refEndpoint) ack(now int64, from int, q int64) {
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

// receive takes in refSegment p from peer "from" and reports whether its
// payload is new. The adapter sends the ack first, for duplicates too: the
// peer may have lost the previous one.
func (ep *refEndpoint) receive(now int64, from int, p seg) bool {
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
func (ep *refEndpoint) heard(now int64, peer int) {
	ep.lastHeard[peer] = now
	ep.vouch(now, peer)
}

// vouch applies liveness evidence for a peer: reset retry budgets of its
// in-flight segments and rescind an earlier give-up with a PeerUp notice.
// Only segments that were retransmitted since the last reset carry a budget
// to reset, and retrying lists exactly those (plus stale seqs), so a vouch
// costs O(retried segments to peer). Each reset is independent of the
// others, so visiting them in list order leaves the same state as any order.
func (ep *refEndpoint) vouch(now int64, peer int) {
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
func (ep *refEndpoint) giveUp(now int64, peer int) {
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

func (ep *refEndpoint) verdict(now int64, peer int, notice any, kind sim.EventKind) {
	ep.notify(sim.Message{From: peer, To: ep.id, When: now, Payload: notice},
		sim.Event{Kind: kind, Time: now, From: ep.id, To: peer})
}

// retransmit handles refSegment q (s, in flight) at its due time: it gives up
// on the peer once the retry budget is spent, and otherwise returns the
// frame to send again, with s.due moved out by the backed-off timeout.
func (ep *refEndpoint) retransmit(now, q int64, s *refSegment) (f seg, ok bool) {
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
func (ep *refEndpoint) inFlight() []int64 {
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
// every refSegment gets a fresh retry budget and is due one timeout from now.
// It returns the re-armed seqs in ascending order (see inFlight).
func (ep *refEndpoint) restart(now int64) []int64 {
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
// never alias refEndpoint state.
func (ep *refEndpoint) heardList(now int64, to int) []int {
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
func (ep *refEndpoint) track(peer int, seq int64) {
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
