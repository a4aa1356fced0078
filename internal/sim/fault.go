package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// FaultPlan is a seeded, deterministic description of the runtime faults a
// sensor network suffers during one run: per-link frame loss, duplication,
// bounded reordering, and node crashes with optional restart. Both engines
// apply the plan through one injector — the synchronous engine from its
// sequential delivery phase, the asynchronous engine from its
// single-threaded event scheduler — so a fixed (seed, plan) pair reproduces
// the same faults byte-for-byte regardless of GOMAXPROCS. Every injected fault is emitted to
// the Trace (EventDropFault, EventDup, EventNodeCrash, EventNodeRestart) and
// counted in Stats, making faulty runs auditable.
//
// The plan composes with DelayFn: delay stretches time, the plan removes,
// repeats, and jumbles frames. Protocols built directly on the engines will
// generally misbehave under a non-zero plan — that is the point; see
// internal/transport for the reliable-delivery layer that restores exactly-
// once semantics on top.
type FaultPlan struct {
	// Seed drives the plan's private RNG, kept separate from the protocol
	// RNGs so injected faults never perturb a protocol's random stream.
	Seed int64
	// Loss is the per-message drop probability applied to every link.
	Loss float64
	// Dup is the probability a delivered message is duplicated once; the
	// copy arrives slightly later (exercising receiver-side dedup).
	Dup float64
	// Reorder bounds the extra delivery displacement, in rounds (sync) or
	// virtual time units (async), added uniformly at random to each message.
	// Zero disables reordering.
	Reorder int64
	// Crashes lists node outages, applied in addition to message faults.
	Crashes []Crash
}

// Crash is one node outage: the node stops participating at virtual time
// (or synchronous round) At. If RestartAt > At the node resumes there with
// its volatile state intact — a radio outage rather than a reboot; traffic
// addressed to the node inside the window is lost. RestartAt == At (with
// At > 0) is a zero-length outage: the node crashes and rejoins inside the
// same virtual-time tick, losing no traffic but still receiving a
// NodeRestarted notice so it runs its rejoin resync (the radio blipped; the
// node cannot know nothing was missed). RestartAt == 0 means the node never
// comes back (crash-stop).
type Crash struct {
	Node      int
	At        int64
	RestartAt int64
}

// stop reports whether this outage is a crash-stop: the node never returns.
// RestartAt == 0 is the documented sentinel; a RestartAt before At is
// ill-formed (Validate rejects it) and treated as crash-stop defensively.
func (c Crash) stop() bool { return c.RestartAt == 0 || c.RestartAt < c.At }

// Validate checks the plan against the n-node network it will be applied to
// and returns a descriptive error for ill-formed input: rates out of range,
// nodes out of range, negative times, a restart before its crash, or
// overlapping outage windows on one node. Engines validate the plan before
// running it, so a bad script fails loudly instead of silently misbehaving
// (an out-of-range crash would never fire; overlapping windows would make
// restart notices and dead-node accounting disagree).
func (p *FaultPlan) Validate(n int) error {
	if p == nil {
		return nil
	}
	if p.Loss < 0 || p.Loss > 1 {
		return fmt.Errorf("sim: fault plan loss %v outside [0,1]", p.Loss)
	}
	if p.Dup < 0 || p.Dup > 1 {
		return fmt.Errorf("sim: fault plan dup %v outside [0,1]", p.Dup)
	}
	if p.Reorder < 0 {
		return fmt.Errorf("sim: fault plan reorder %d negative", p.Reorder)
	}
	byNode := make(map[int][]Crash)
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("sim: crash node %d outside [0,%d)", c.Node, n)
		}
		if c.At < 0 {
			return fmt.Errorf("sim: crash of node %d at negative time %d", c.Node, c.At)
		}
		if c.RestartAt < 0 {
			return fmt.Errorf("sim: crash of node %d restarts at negative time %d", c.Node, c.RestartAt)
		}
		if c.RestartAt > 0 && c.RestartAt < c.At {
			return fmt.Errorf("sim: crash of node %d restarts at %d before it crashes at %d", c.Node, c.RestartAt, c.At)
		}
		byNode[c.Node] = append(byNode[c.Node], c)
	}
	for node, wins := range byNode {
		// A total order, so the verdict cannot depend on input order: by
		// time, a crash-stop before an outage starting at the same time
		// (which it then forbids), shorter windows first.
		sort.Slice(wins, func(i, j int) bool {
			a, b := wins[i], wins[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.stop() != b.stop() {
				return a.stop()
			}
			return a.RestartAt < b.RestartAt
		})
		for i := 1; i < len(wins); i++ {
			prev := wins[i-1]
			if prev.stop() {
				return fmt.Errorf("sim: node %d crash-stops at %d but has another outage at %d",
					node, prev.At, wins[i].At)
			}
			if wins[i].At < prev.RestartAt {
				return fmt.Errorf("sim: node %d outage at %d overlaps the window [%d,%d)",
					node, wins[i].At, prev.At, prev.RestartAt)
			}
		}
	}
	return nil
}

// CrashedAt reports whether node v is inside a crash window at time t. A
// zero-length outage (RestartAt == At) covers no tick: the node crashed and
// rejoined inside one tick, so no tick ever observes it down.
func (p *FaultPlan) CrashedAt(v int, t int64) bool {
	if p == nil {
		return false
	}
	for _, c := range p.Crashes {
		if c.Node == v && t >= c.At && (c.stop() || t < c.RestartAt) {
			return true
		}
	}
	return false
}

// DeadBy reports whether node v has crash-stopped (a window with no
// restart) at or before time t. Protocol drivers use this to exclude a
// node's arcs from the schedule they assemble.
func (p *FaultPlan) DeadBy(v int, t int64) bool {
	if p == nil {
		return false
	}
	for _, c := range p.Crashes {
		if c.Node == v && c.stop() && t >= c.At {
			return true
		}
	}
	return false
}

// Shifted returns a copy of the plan with every crash time moved earlier by
// offset (clamped at zero) and the fault RNG reseeded with salt. Drivers
// that run a protocol as a sequence of engine runs (DistMIS phases, DFS
// recovery epochs) use this to keep one wall-clock fault script aligned
// across the per-run virtual clocks.
//
// A bounded outage whose restart lies at or before the offset has fully
// elapsed: it is dropped from the shifted plan rather than clamped to a
// degenerate window, which would re-crash the node at the start of every
// subsequent run. A window still open at the offset is carried into the
// shifted plan with its crash clamped to time zero, so its restart can
// still fire in a later run.
func (p *FaultPlan) Shifted(offset int64, salt int64) *FaultPlan {
	if p == nil {
		return nil
	}
	q := *p
	q.Seed = p.Seed ^ salt*0x2545F4914F6CDD1D
	q.Crashes = make([]Crash, 0, len(p.Crashes))
	for _, c := range p.Crashes {
		if !c.stop() && c.RestartAt-offset <= 0 {
			continue // outage (possibly zero-length) fully in the past
		}
		c.At -= offset
		if c.At < 0 {
			c.At = 0
		}
		if c.RestartAt > 0 {
			c.RestartAt -= offset
			if c.RestartAt < 1 {
				c.RestartAt = 1
			}
		}
		q.Crashes = append(q.Crashes, c)
	}
	return &q
}

// NodeRestarted is the notice an engine delivers (with From == -1) to a
// node at the moment its crash window closes. Protocols treat it as the
// trigger for their rejoin handshake: re-sync distance-2 state from live
// neighbors and re-enter the computation. Restarts is the number of windows
// the node has completed so far in this run, starting at 1; protocols use
// it to generation-tag re-announced state so floods are not dedup-dropped.
type NodeRestarted struct {
	Restarts int
}

// crashMark is one edge of a crash window: a crash (stop reports a
// crash-stop) or a restart (gen is the node's NodeRestarted generation).
type crashMark struct {
	at   int64
	node int
	kind EventKind // EventNodeCrash or EventNodeRestart
	stop bool
	gen  int
}

// crashMarks flattens the plan's windows into marks sorted by time, then
// node, crashes before restarts, and numbers each node's restarts in that
// order.
func (p *FaultPlan) crashMarks() []crashMark {
	if p == nil {
		return nil
	}
	var marks []crashMark
	for _, c := range p.Crashes {
		marks = append(marks, crashMark{at: c.At, node: c.Node, kind: EventNodeCrash, stop: c.stop()})
		if !c.stop() {
			marks = append(marks, crashMark{at: c.RestartAt, node: c.Node, kind: EventNodeRestart})
		}
	}
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].at != marks[j].at {
			return marks[i].at < marks[j].at
		}
		if marks[i].node != marks[j].node {
			return marks[i].node < marks[j].node
		}
		return marks[i].kind < marks[j].kind
	})
	gens := make(map[int]int)
	for i := range marks {
		if marks[i].kind == EventNodeRestart {
			gens[marks[i].node]++
			marks[i].gen = gens[marks[i].node]
		}
	}
	return marks
}

// injector applies a FaultPlan to one engine run, and is the only place the
// plan's semantics live: it owns the fault RNG, decides loss, reordering and
// duplication per message, drops traffic that arrives inside a crash
// window, fires the crash and restart marks, and keeps the Crashed and
// Returned lists. Every injected fault is counted in the engine's Stats and
// traced. The engines only supply the clock: the synchronous engine calls
// the injector from its sequential delivery phase, the asynchronous engine
// from its single-threaded scheduler, so one seed yields one fault script
// at any GOMAXPROCS.
type injector struct {
	plan     *FaultPlan
	rand     *rand.Rand
	trace    Tracer
	counts   *Stats // the engine's Stats
	marks    []crashMark
	fired    int // marks[:fired] have fired
	crashed  []int
	returned []int
}

// reset arms the injector for a run of plan (nil: no faults), reporting to
// trace and counting into counts.
func (in *injector) reset(plan *FaultPlan, trace Tracer, counts *Stats) {
	in.plan, in.trace, in.counts = plan, trace, counts
	in.marks, in.fired = plan.crashMarks(), 0
	in.crashed, in.returned = nil, nil
	if plan == nil {
		return
	}
	seed := plan.Seed ^ 0x6A09E667F3BCC909
	if in.rand == nil {
		in.rand = rand.New(rand.NewSource(seed))
	} else {
		in.rand.Seed(seed)
	}
}

// Crashed returns the nodes whose crash-stop windows fired during the last
// Run, in firing order: by crash time, then node id.
func (in *injector) Crashed() []int { return append([]int(nil), in.crashed...) }

// Returned returns the nodes whose restart marks fired during the last Run,
// ascending and deduplicated. Each was sent a NodeRestarted notice and is
// live unless a later crash-stop window also fired.
func (in *injector) Returned() []int { return append([]int(nil), in.returned...) }

// transmit decides the fate of message m, sent for delivery at m.When: lost
// (ok=false), or delivered at when, displaced by up to Reorder, plus one
// duplicate delivered at dup if dup > 0.
func (in *injector) transmit(m Message) (when, dup int64, ok bool) {
	p := in.plan
	when = m.When
	if p == nil {
		return when, 0, true
	}
	if p.Loss > 0 && in.rand.Float64() < p.Loss {
		in.drop(m, when)
		return 0, 0, false
	}
	if p.Reorder > 0 {
		when += in.rand.Int63n(p.Reorder + 1)
	}
	if p.Dup > 0 && in.rand.Float64() < p.Dup {
		dup = when + 1 + in.rand.Int63n(p.Reorder+2)
		in.counts.Duplicated++
		in.emit(EventDup, dup, m)
	}
	return when, dup, true
}

// arrive reports whether m, arriving at time t, reaches its destination.
// An arrival inside the destination's crash window is lost: a message is
// counted and traced as dropped, a timer silently discarded.
func (in *injector) arrive(m Message, t int64, timer bool) bool {
	if !in.plan.CrashedAt(m.To, t) {
		return true
	}
	if !timer {
		in.drop(m, t)
	}
	return false
}

// drop counts and traces message m, removed by the plan at time t.
func (in *injector) drop(m Message, t int64) {
	in.counts.DroppedFault++
	in.emit(EventDropFault, t, m)
}

func (in *injector) emit(kind EventKind, t int64, m Message) {
	if in.trace != nil {
		in.trace.Emit(Event{Kind: kind, Time: t, From: m.From, To: m.To, Payload: payloadName(m.Payload)})
	}
}

// fire fires the marks due by time upTo, in mark order: it traces each,
// records a crash-stop in Crashed and a restart in Returned, and returns
// the marks it fired.
func (in *injector) fire(upTo int64) []crashMark {
	from := in.fired
	for in.fired < len(in.marks) && in.marks[in.fired].at <= upTo {
		mk := in.marks[in.fired]
		in.fired++
		if mk.kind == EventNodeRestart {
			if i, found := slices.BinarySearch(in.returned, mk.node); !found {
				in.returned = slices.Insert(in.returned, i, mk.node)
			}
		} else if mk.stop {
			in.crashed = append(in.crashed, mk.node)
		}
		if in.trace != nil {
			in.trace.Emit(Event{Kind: mk.kind, Time: mk.at, From: mk.node, To: -1})
		}
	}
	return in.marks[from:in.fired]
}
