// Package transport is a reliable-delivery layer between the protocols in
// internal/core and the lossy runtime modeled by sim.FaultPlan. It provides
// per-link sequence numbering, positive acknowledgements, retransmission
// with exponential backoff off an adaptive per-link timeout (Jacobson/RFC
// 6298 SRTT/RTTVAR under Karn's rule, clamped to [RTO, MaxRTO]), and
// receiver-side duplicate suppression — the standard ARQ recipe — over both
// simulation engines, while exposing the same Send/Broadcast/Recv surface
// the engines give protocols directly, so a protocol opts in by swapping
// its env type, not by rewriting its logic.
//
// Loss is indistinguishable from a dead peer in finite time, so reliability
// is necessarily bounded: after MaxRetries unacknowledged retransmissions
// the sender gives up, marks the peer down, and delivers a PeerDown notice
// to its own protocol in place of further contact. A give-up is a verdict,
// not a sentence: direct contact from the peer, or a neighbor's gossip
// vouch (the Heard list piggybacked on every frame, bounded by
// VouchWindow), rescinds it with a PeerUp notice and re-admits the peer.
// Protocols treat PeerDown/PeerUp as the failure-detector output the
// crash-recovery logic in internal/core keys off.
//
// The ARQ state machine is written once, as one endpoint per node that
// keeps time as a plain integer. Two clock adapters drive it. Sync counts
// physical rounds: it scans for due retransmissions every round and
// rebuilds the lockstep-round abstraction on top of the unreliable network
// — the engine's RoundGate synchronizer (sim.SyncEnv Advance) opens a new
// logical round only once every live node's previous logical round has
// fully settled, every segment acknowledged or given up on — which
// restores the delivery guarantee round-based protocols like DistMIS
// assume, at a measurable cost in physical rounds (see the fault experiment
// in internal/expt). Async runs on virtual time and retransmits on engine
// timers (sim.AsyncEnv.SetTimer).
package transport

import "fmt"

// NoRetries is the MaxRetries sentinel for "send once, never retransmit":
// an unacknowledged segment is abandoned at its first timeout. A literal 0
// means "use the default" so the zero Options value stays the default
// configuration.
const NoRetries = -1

// Options tunes the ARQ machinery. The zero value selects the defaults.
type Options struct {
	// RTO is the initial retransmission timeout in virtual time units
	// (async) or physical rounds (sync), and the floor of the adaptive
	// estimator. Default 4: one round trip plus slack under the unit-hop
	// model. Negative values are rejected by Validate: a zero timeout is
	// not expressible, retransmission always waits at least one time unit.
	RTO int64
	// MaxRTO caps the adaptive estimate and the exponential backoff.
	// Default 32·RTO.
	MaxRTO int64
	// MaxRetries bounds retransmissions of one segment before the sender
	// declares the peer down. Default 8 — with doubling backoff capped at
	// MaxRTO, that rides out loss bursts far beyond the rates the fault
	// experiments exercise. Use NoRetries for "no retransmission at all";
	// values below NoRetries are rejected by Validate.
	MaxRetries int
	// VouchWindow is the recency horizon of the gossip liveness hint: a
	// sender piggybacks on every segment the list of peers it heard from
	// within the last VouchWindow time units, and receivers treat a vouch
	// for a peer as evidence the peer is alive (retry budgets reset, an
	// earlier give-up is rescinded with PeerUp). Default 8·RTO. Negative
	// disables gossip.
	VouchWindow int64
}

// Validate reports options the ARQ cannot run with. Drivers call it before
// building any endpoint; an endpoint built from invalid options panics.
func (o Options) Validate() error {
	if o.RTO < 0 {
		return fmt.Errorf("transport: negative RTO %d", o.RTO)
	}
	if o.MaxRetries < NoRetries {
		return fmt.Errorf("transport: invalid MaxRetries %d", o.MaxRetries)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	if o.RTO == 0 {
		o.RTO = 4
	}
	if o.MaxRTO <= 0 {
		o.MaxRTO = 32 * o.RTO
	}
	switch o.MaxRetries {
	case 0:
		o.MaxRetries = 8
	case NoRetries:
		o.MaxRetries = 0
	}
	if o.VouchWindow == 0 {
		o.VouchWindow = 8 * o.RTO
	}
	return o
}

// backoff returns the timeout before retransmission attempt "retries"
// (0-based) from a base timeout: base doubled per retry, capped at MaxRTO
// (and never below base). The base is the link's adaptive RTO estimate, or
// Options.RTO before any sample exists.
func (o Options) backoff(base int64, retries int) int64 {
	shift := retries
	if shift > 5 {
		shift = 5
	}
	b := base << shift
	if b > o.MaxRTO {
		b = o.MaxRTO
	}
	if b < base {
		b = base
	}
	return b
}

// PeerDown is delivered to a protocol (as a message From the peer) when the
// transport gives up on reaching that peer: MaxRetries retransmissions of
// some segment went unacknowledged. The peer is excluded from this node's
// sends for the rest of the run; protocols use the notice as a local crash
// detector.
type PeerDown struct {
	Peer int
}

// PeerUp rescinds an earlier PeerDown: contact with the peer resumed (a
// frame arrived from it, or a neighbor vouched for it) after this endpoint
// had given up. The peer is re-admitted to this node's sends; protocols use
// the notice to resume deferred work involving the peer.
type PeerUp struct {
	Peer int
}

// seg is the transport frame wrapping one protocol payload. Round is the
// sender's logical round (synchronous transport only; -1 in async runs) so
// the receiver can assert logical-round integrity. Heard is the gossip
// liveness hint: the sorted set of peers the sender heard from within its
// VouchWindow (nil when empty) — never aliased to sender state, built fresh
// per frame.
type seg struct {
	Seq     int64
	Round   int64
	Payload any
	Heard   []int
}

// ack acknowledges receipt of a segment. Acks are fire-and-forget: a lost
// ack just provokes a retransmission, which is re-acked.
type ack struct {
	Seq int64
}

// retrans is the self-timer payload scheduled per in-flight segment (async
// transport only).
type retrans struct {
	Seq int64
}

// Counters is the per-node accounting of one endpoint's run.
type Counters struct {
	Segments    int64 // protocol payloads handed to the transport
	Retries     int64 // retransmissions performed
	GaveUp      int64 // segments abandoned after MaxRetries
	DupDropped  int64 // received duplicates suppressed
	Acks        int64 // acknowledgements sent
	MaxInFlight int   // peak unacknowledged segments
	PeersDown   int   // peers given up on
	PeersUp     int   // give-ups rescinded after contact resumed
	RTTSamples  int64 // round-trip samples fed to the adaptive estimator
	Vouched     int64 // retry budgets reset by direct contact or gossip vouches
}

// add accumulates other into c.
func (c *Counters) add(other Counters) {
	c.Segments += other.Segments
	c.Retries += other.Retries
	c.GaveUp += other.GaveUp
	c.DupDropped += other.DupDropped
	c.Acks += other.Acks
	if other.MaxInFlight > c.MaxInFlight {
		c.MaxInFlight = other.MaxInFlight
	}
	c.PeersDown += other.PeersDown
	c.PeersUp += other.PeersUp
	c.RTTSamples += other.RTTSamples
	c.Vouched += other.Vouched
}

// Totals aggregates transport accounting across all nodes of a run.
type Totals struct {
	Counters
	PerNode []Counters
}

// Collect sums the counters of a run's per-node wrappers into run totals.
func Collect[T interface{ Counters() Counters }](nodes []T) Totals {
	t := Totals{PerNode: make([]Counters, len(nodes))}
	for i, w := range nodes {
		t.PerNode[i] = w.Counters()
		t.add(t.PerNode[i])
	}
	return t
}

// Add merges another run's totals (drivers composing several engine runs).
func (t *Totals) Add(other Totals) {
	t.Counters.add(other.Counters)
	if t.PerNode == nil {
		t.PerNode = make([]Counters, len(other.PerNode))
	}
	for i := range other.PerNode {
		if i < len(t.PerNode) {
			t.PerNode[i].add(other.PerNode[i])
		}
	}
}

func (t Totals) String() string {
	return fmt.Sprintf("segs=%d retries=%d gaveup=%d dups=%d acks=%d maxinflight=%d peersdown=%d peersup=%d rtts=%d vouched=%d",
		t.Segments, t.Retries, t.GaveUp, t.DupDropped, t.Acks, t.MaxInFlight, t.PeersDown,
		t.PeersUp, t.RTTSamples, t.Vouched)
}
