package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"fdlsp/internal/graph"
	"fdlsp/internal/obs"
)

// AsyncNode is the behavior of one processor under the asynchronous model:
// Run is the node's whole life, executed on its own goroutine. It typically
// loops on env.Recv and returns when the protocol is over for this node (or
// when Recv reports shutdown).
type AsyncNode interface {
	Run(env *AsyncEnv)
}

// DelayFn injects extra delivery delay (in virtual time units) per message;
// the base cost of a hop is always 1 unit. rng is the sending node's private
// delay generator — separate from the protocol's env.Rand, so failure
// injection can never shift the random stream a protocol draws from (the
// number of sends a node performs may differ between runs when concurrent
// floods race for dedup slots, and a shared stream would leak that timing
// into protocol decisions). Delays are deterministic per seed given the
// node's send sequence. A nil DelayFn means no extra delay.
type DelayFn func(from, to int, rng *rand.Rand) int64

// AsyncEnv is the per-node handle on the asynchronous engine. Only the
// owning goroutine may use it, and the engine guarantees at most one node
// goroutine runs at any instant (see AsyncEngine).
type AsyncEnv struct {
	ID        int
	Neighbors []int // sorted
	// Rand is the node's private generator, seeded on its first draw.
	Rand *rand.Rand

	engine    *AsyncEngine
	wake      chan wakeEvt
	clock     int64
	shutdown  bool
	delayRand *rand.Rand // feeds DelayFn only; see DelayFn
	rng       lazySource // backs Rand
	delayRng  lazySource // backs delayRand
}

// wakeEvt hands control to a node goroutine parked in Recv: a delivery, or
// a shutdown notice (ok=false).
type wakeEvt struct {
	m  Message
	ok bool
}

// Clock returns the node's Lamport-style virtual time.
func (e *AsyncEnv) Clock() int64 { return e.clock }

// Send transmits payload to the neighbor "to". The message is stamped with
// the sender's clock plus one hop plus any injected delay, then passes
// through the engine's FaultPlan (loss, reordering, duplication). Sending to
// a non-neighbor panics. Messages to nodes that already finished are counted
// and dropped at delivery time, mirroring a transceiver switched off.
func (e *AsyncEnv) Send(to int, payload any) {
	eng := e.engine
	if _, ok := slices.BinarySearch(e.Neighbors, to); !ok {
		panic(fmt.Sprintf("sim: node %d sending to non-neighbor %d", e.ID, to))
	}
	when := e.clock + 1
	if eng.Delay != nil {
		when += eng.Delay(e.ID, to, e.delayRand)
	}
	eng.stats.Messages++
	if eng.Trace != nil {
		eng.Trace.Emit(Event{Kind: EventSend, Time: when, From: e.ID, To: to, Payload: payloadName(payload)})
	}
	m := Message{From: e.ID, To: to, When: when, Payload: payload}
	when, dup, ok := eng.injector.transmit(m)
	if !ok {
		return
	}
	if dup > 0 {
		d := m
		d.When = dup
		eng.enqueue(d, false)
	}
	m.When = when
	eng.enqueue(m, false)
}

// Broadcast sends payload to every neighbor.
func (e *AsyncEnv) Broadcast(payload any) {
	for _, u := range e.Neighbors {
		e.Send(u, payload)
	}
}

// SetTimer schedules a local alarm: after "after" time units (minimum 1) the
// node receives a Message from itself (From == ID) carrying payload. Timers
// are internal — they are not messages, so they bypass the FaultPlan and the
// message counters, and pending timers are discarded once the run begins
// shutting down. Reliable-transport retransmission is the intended use.
func (e *AsyncEnv) SetTimer(after int64, payload any) {
	if after < 1 {
		after = 1
	}
	e.engine.enqueue(Message{From: e.ID, To: e.ID, When: e.clock + after, Payload: payload}, true)
}

// Recv blocks until a message arrives and returns it, advancing the node's
// clock to the message's delivery time. It returns ok=false when the run is
// shutting down (a node called FinishAll, or the whole system went
// quiescent), at which point the node should return from Run.
func (e *AsyncEnv) Recv() (Message, bool) {
	if e.shutdown {
		return Message{}, false
	}
	eng := e.engine
	eng.idle[e.ID] = true
	evt, toSelf := eng.pass(e.ID)
	if !toSelf {
		evt = <-e.wake
	}
	if !evt.ok {
		e.shutdown = true
		return Message{}, false
	}
	if evt.m.When > e.clock {
		e.clock = evt.m.When
	}
	if e.clock > eng.maxClock {
		eng.maxClock = e.clock
	}
	if eng.Trace != nil {
		eng.Trace.Emit(Event{Kind: EventDeliver, Time: evt.m.When, From: evt.m.From, To: evt.m.To, Payload: payloadName(evt.m.Payload)})
	}
	return evt.m, true
}

// FinishAll signals global termination: queued messages still get delivered,
// then all Recv calls return ok=false. Typically invoked by a designated
// node that detects the protocol is complete (e.g. the DFS root when the
// token returns).
func (e *AsyncEnv) FinishAll() { e.engine.stopped = true }

// AsyncEngine runs one goroutine per node over the communication graph,
// scheduled as a discrete-event simulation: events are delivered in
// (virtual time, send order) and exactly one node goroutine runs at a time.
// Control is a baton: the node that yields in Recv (or whose Run returns)
// pops the next deliverable event itself and wakes its target directly, so a
// delivery costs one goroutine switch, and none when the event is addressed
// to the yielding node (timers, retransmissions). Only when the queue runs
// dry does the baton return to the goroutine in Run, which launches the
// nodes, shuts them down at quiescence and collects the result. Runs are
// therefore fully deterministic per seed — schedules, message counts, the
// virtual completion time, fault scripts, and trace order are all identical
// regardless of GOMAXPROCS — while node code keeps the natural blocking
// Recv-loop style of the asynchronous model. An engine runs once; build a
// new one per run.
type AsyncEngine struct {
	g     *graph.Graph
	nodes []AsyncNode
	envs  []*AsyncEnv
	// Delay optionally injects per-message delivery delay (adversarial
	// scheduling).
	Delay DelayFn
	// Trace optionally receives send, deliver, fault, and termination
	// events, in deterministic order.
	Trace Tracer
	// Fault optionally injects message loss, duplication, reordering, and
	// node crashes. nil means a perfectly reliable network.
	Fault *FaultPlan
	// MaxEvents bounds deliveries per Run; exceeding it aborts with an
	// error. Zero means unlimited (matching the pre-fault engine, which
	// likewise ran until quiescence or FinishAll).
	MaxEvents int64
	// Metrics optionally receives the run's accounting (fdlsp_sim_* counter
	// families, engine="async") when Run finishes, successfully or not.
	Metrics *obs.Registry

	queue     eventHeap
	seq       int64
	baton     chan struct{} // hands control back to the goroutine in Run
	launched  bool          // every node has started; yields pass the baton on
	ran       bool          // an engine runs once
	dead      []bool
	idle      []bool // parked in Recv, waiting for a delivery
	delivered int64
	maxClock  int64
	stopped   bool
	stats     Stats
	err       error
	injector
}

// NewAsyncEngine builds an asynchronous engine over g; factory produces the
// node behavior for each vertex. Seed derives per-node private RNGs.
func NewAsyncEngine(g *graph.Graph, seed int64, factory func(id int) AsyncNode) *AsyncEngine {
	eng := &AsyncEngine{
		g:     g,
		nodes: make([]AsyncNode, g.N()),
		envs:  make([]*AsyncEnv, g.N()),
		dead:  make([]bool, g.N()),
		idle:  make([]bool, g.N()),
		baton: make(chan struct{}, 1),
	}
	for v := 0; v < g.N(); v++ {
		eng.nodes[v] = factory(v)
		env := &AsyncEnv{
			ID:        v,
			Neighbors: g.Neighbors(v),
			engine:    eng,
			wake:      make(chan wakeEvt, 1),
		}
		env.Rand = newLazyRand(&env.rng, seed^int64(v)*0x5851F42D4C957F2D^0x7C15F0B3)
		env.delayRand = newLazyRand(&env.delayRng, seed^int64(v)*0x5851F42D4C957F2D^0x3C6EF372)
		eng.envs[v] = env
	}
	return eng
}

// enqueue inserts a delivery event; callers hold the baton, so the
// insertion sequence (the tie-break for equal times) is deterministic.
func (eng *AsyncEngine) enqueue(m Message, timer bool) {
	eng.seq++
	eng.queue.push(desEvent{m: m, seq: eng.seq, timer: timer})
}

// Inject queues an external kick-off message (e.g. a Start token) for node
// "to" at virtual time 0 before the run begins.
func (eng *AsyncEngine) Inject(to int, payload any) {
	eng.enqueue(Message{From: -1, To: to, When: 0, Payload: payload}, false)
}

// Stats returns the accounting of the last Run: Rounds is the worst-case
// causal chain length (the asynchronous time complexity), Messages the
// total number of messages sent.
func (eng *AsyncEngine) Stats() Stats { return eng.stats }

// Emit forwards a protocol-layer trace event (e.g. transport peer-down /
// peer-up) to the engine tracer. All node activity is serialized by the
// baton, so direct emission keeps deterministic order here; the
// synchronous engine instead drains EventSource queues after its round
// barrier.
func (e *AsyncEnv) Emit(ev Event) {
	if e.engine.Trace != nil {
		e.engine.Trace.Emit(ev)
	}
}

// Run executes the simulation and blocks until every node goroutine has
// returned. If every live node is blocked in Recv with no event pending, the
// engine declares quiescence and shuts the run down (so a protocol bug
// cannot hang the caller). An engine runs once: a second Run returns an
// error, since the first one consumed its queue and finished its nodes (a
// Run rejected by FaultPlan.Validate does not count).
func (eng *AsyncEngine) Run() error {
	if eng.ran {
		return errors.New("sim: AsyncEngine.Run called twice; build a new engine per run")
	}
	n := eng.g.N()
	if err := eng.Fault.Validate(n); err != nil {
		return err
	}
	eng.ran = true
	eng.injector.reset(eng.Fault, eng.Trace, &eng.stats)
	// Every restart mark schedules its NodeRestarted notice as an event at
	// the moment the window closes, so the run cannot quiesce before it.
	for _, mk := range eng.injector.marks {
		if mk.kind == EventNodeRestart {
			eng.enqueue(Message{From: -1, To: mk.node, When: mk.at, Payload: NodeRestarted{Restarts: mk.gen}}, false)
		}
	}

	// Start the nodes one at a time: each runs exclusively until it first
	// blocks in Recv (or returns) and hands the baton back here, so startup
	// sends are ordered by node id.
	for v := 0; v < n; v++ {
		go eng.runNode(v)
		<-eng.baton
	}

	// From here on the baton passes from node to node and comes back only
	// when the queue runs dry: quiescence (or FinishAll). Shut down the
	// remaining nodes then, in id order; a tearing-down node may still send,
	// in which case the new traffic is delivered before the next shutdown.
	eng.launched = true
	eng.pass(-1)
	for {
		<-eng.baton
		v := slices.Index(eng.idle, true)
		if v < 0 {
			break
		}
		eng.stopped = true
		eng.idle[v] = false
		eng.envs[v].wake <- wakeEvt{ok: false}
	}
	eng.injector.fire(eng.maxClock)
	eng.stats.Rounds = eng.maxClock
	publishStats(eng.Metrics, "async", eng.stats)
	return eng.err
}

// runNode is node v's goroutine: its Run, then the baton passed on.
func (eng *AsyncEngine) runNode(v int) {
	func() {
		defer func() {
			if r := recover(); r != nil && eng.err == nil {
				eng.err = fmt.Errorf("sim: node %d panicked: %v", v, r)
			}
		}()
		eng.nodes[v].Run(eng.envs[v])
	}()
	if eng.Trace != nil {
		eng.Trace.Emit(Event{Kind: EventNodeDone, Time: eng.envs[v].clock, From: v, To: -1})
	}
	eng.dead[v] = true
	eng.pass(v)
}

// pass hands the baton on from the goroutine giving it up — node self
// yielding in Recv or finishing, or Run (self=-1) starting delivery. It pops
// the next deliverable event and wakes its target; an event for self is
// returned instead (toSelf=true), so the caller keeps running with no
// goroutine switch. While the nodes are still launching, or once the queue
// runs dry, the baton goes back to Run.
func (eng *AsyncEngine) pass(self int) (evt wakeEvt, toSelf bool) {
	e, ok := eng.next()
	if !ok {
		eng.baton <- struct{}{}
		return wakeEvt{}, false
	}
	eng.idle[e.m.To] = false
	if e.m.To == self {
		return wakeEvt{m: e.m, ok: true}, true
	}
	eng.envs[e.m.To].wake <- wakeEvt{m: e.m, ok: true}
	return wakeEvt{}, false
}

// next pops the next deliverable event in (virtual time, send order),
// applying everything that happens between deliveries: the MaxEvents
// budget, the crash marks up to the event's time, and the drops of moot
// timers and of traffic to finished or crashed nodes. ok=false means there
// is nothing to deliver: the nodes are still launching, or the queue ran
// dry.
func (eng *AsyncEngine) next() (desEvent, bool) {
	if !eng.launched {
		return desEvent{}, false
	}
	for len(eng.queue) > 0 {
		if eng.MaxEvents > 0 && eng.delivered >= eng.MaxEvents {
			if eng.err == nil {
				eng.err = fmt.Errorf("sim: asynchronous run exceeded %d events", eng.MaxEvents)
			}
			eng.stopped = true
			eng.queue = eng.queue[:0]
			break
		}
		e := eng.queue.pop()
		eng.delivered++
		eng.injector.fire(e.m.When)
		if e.timer && eng.stopped {
			continue // alarms are moot once the run is over
		}
		if eng.dead[e.m.To] {
			if !e.timer {
				eng.stats.DroppedDead++
				if eng.Trace != nil {
					eng.Trace.Emit(Event{Kind: EventDropDead, Time: e.m.When, From: e.m.From, To: e.m.To, Payload: payloadName(e.m.Payload)})
				}
			}
			continue
		}
		if !eng.injector.arrive(e.m, e.m.When, e.timer) {
			continue
		}
		return e, true
	}
	return desEvent{}, false
}

// desEvent is one scheduled delivery in the discrete-event queue.
type desEvent struct {
	m     Message
	seq   int64
	timer bool
}

// eventHeap is a binary min-heap of events ordered by (When, insertion
// sequence). It is hand-rolled rather than wrapped in container/heap: the
// interface-based API boxes every desEvent on Push and Pop, and the event
// queue is the async engine's hottest allocation site.
type eventHeap []desEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].m.When != h[j].m.When {
		return h[i].m.When < h[j].m.When
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e desEvent) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() desEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = desEvent{} // release payload reference
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}
