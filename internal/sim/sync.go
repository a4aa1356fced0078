package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"fdlsp/internal/graph"
	"fdlsp/internal/obs"
)

// SyncNode is the behavior of one processor under the synchronous model.
// Implementations keep all mutable state inside themselves; the engine
// guarantees Step is never called concurrently for the same node.
type SyncNode interface {
	// Step executes one synchronous round: inbox holds the messages sent to
	// this node in the previous round (sorted by sender), and sends are
	// issued through env. It returns true when the node has terminated
	// locally; a terminated node still receives messages (its Step keeps
	// being called while traffic addressed to it exists) so protocols may
	// keep serving queries after deciding.
	Step(env *SyncEnv, inbox []Message) bool
}

// SyncEnv is the per-node view of the synchronous engine passed to Step.
type SyncEnv struct {
	ID        int
	Round     int
	Neighbors []int // sorted, fixed for the run
	// Rand is the node's private generator. Its 607-word state is seeded on
	// the first draw, so nodes that never draw in a phase cost no seeding.
	Rand *rand.Rand
	// Advance is the engine synchronizer's signal for RoundGate nodes: true
	// when every gated node reported GateReady at the end of the previous
	// round, i.e. the current logical round's traffic has fully settled and
	// the next logical round may begin. Nodes that do not implement RoundGate
	// can ignore it.
	Advance bool

	engine *SyncEngine
	outbox []Message
	rng    lazySource // backs Rand
}

// RoundGate is optionally implemented by SyncNodes that run a logical round
// structure on top of an unreliable physical network (see
// internal/transport). The engine polls GateReady after every physical
// round; once all live gated nodes are ready it sets Advance on the next
// round's envs, which is the global signal that every logical-round message
// has either been acknowledged or given up on — the synchronous analogue of
// an asynchronous-round synchronizer, computed by the simulator the same way
// it already detects global termination.
type RoundGate interface {
	// GateReady reports that this node has no unacknowledged outbound
	// traffic for the current logical round.
	GateReady() bool
}

// Send enqueues a message to neighbor "to" for delivery next round. Sending
// to a non-neighbor panics: the model only has channels along edges.
func (e *SyncEnv) Send(to int, payload any) {
	if _, ok := slices.BinarySearch(e.Neighbors, to); !ok {
		panic(fmt.Sprintf("sim: node %d sending to non-neighbor %d", e.ID, to))
	}
	e.outbox = append(e.outbox, Message{From: e.ID, To: to, Payload: payload})
}

// Broadcast sends payload to every neighbor.
func (e *SyncEnv) Broadcast(payload any) {
	for _, u := range e.Neighbors {
		e.Send(u, payload)
	}
}

// SyncEngine drives a set of SyncNodes over a communication graph in
// lock-step rounds. Within a round, node steps — and, on fault-free runs,
// message delivery — shard across a bounded worker pool; the merge order is
// fixed, so schedules, traces and metrics snapshots are byte-identical per
// seed at any Workers or GOMAXPROCS setting (DESIGN.md §13).
type SyncEngine struct {
	g     *graph.Graph
	nodes []SyncNode
	envs  []*SyncEnv
	// MaxRounds bounds the run; exceeded runs return an error. Zero means
	// the default of 10_000 + 100·n rounds.
	MaxRounds int
	// Trace optionally receives round, send, and node-termination events.
	Trace Tracer
	// Fault optionally injects message loss, duplication, reordering, and
	// node crashes. nil means a perfectly reliable network.
	Fault *FaultPlan
	// Metrics optionally receives the run's accounting (fdlsp_sim_* counter
	// families, engine="sync") when Run finishes, successfully or not. The
	// published values are the deterministic Stats, so snapshots are
	// byte-identical per seed regardless of GOMAXPROCS. Workers never touch
	// the registry: publication happens once, from the sequential epilogue.
	Metrics *obs.Registry
	// OnRound, when set, is invoked once per executed round from the
	// engine's sequential section, after the round's steps have run and its
	// sends have been delivered. Protocol drivers use it to probe global
	// state mid-run (e.g. residual conflicts during repair) without stopping
	// the protocol; the hook runs with no shard goroutines alive, so it may
	// read node state freely. It must not mutate engine or node state.
	OnRound func(round int64)
	// Workers bounds the engine's worker pool: node steps (and, when no
	// fault plan is active, message delivery) shard across min(Workers, n)
	// persistent workers. 0 means GOMAXPROCS. 1 is the serial special case:
	// every phase runs inline on the calling goroutine, with no pool. The
	// run's outcome — schedule, trace, metrics — is byte-identical at every
	// setting; Workers only changes wall clock. The field persists across
	// Reset (it describes the execution substrate, not one run).
	Workers int

	stats Stats
	injector

	// Per-run scratch, reused across Run and Reset cycles so repeated runs
	// (DistMIS drives one engine through many phases) stop re-allocating
	// per-node buffers.
	inboxes  [][]Message
	done     []bool
	doneSeen []bool
	panics   []error

	// Worker pool state. The pool is started once per Run (workers > 1) and
	// torn down when Run returns; rounds dispatch phase tokens over the
	// per-worker channels instead of spawning goroutines, so the steady
	// state allocates nothing per round. round/advance are written in the
	// sequential section before a dispatch and read by workers after the
	// channel receive (which provides the happens-before edge).
	work    []chan poolOp
	wg      sync.WaitGroup
	shardLo []int
	shardHi []int
	round   int
	advance bool

	// sources and gates cache, per Run, which nodes implement EventSource
	// and RoundGate, replacing two per-node type assertions per round.
	sources []sourceAt
	gates   []gateAt
}

// poolOp is a phase token dispatched to the worker pool.
type poolOp uint8

const (
	opStep    poolOp = iota + 1 // step the worker's own shard of nodes
	opDeliver                   // deliver this round's sends into the worker's shard of inboxes
)

type sourceAt struct {
	v   int
	src EventSource
}

type gateAt struct {
	v    int
	gate RoundGate
}

// envSeed derives node v's private RNG seed from the run seed.
func envSeed(seed int64, v int) int64 {
	return seed ^ int64(v)*0x5851F42D4C957F2D ^ 0x5BF03635
}

// NewSyncEngine builds an engine for graph g with one node per vertex,
// produced by factory. Seed derives each node's private RNG (deterministic
// runs for a fixed seed regardless of scheduling, since parallelism never
// crosses node state). The factory is always called serially, in node
// order.
func NewSyncEngine(g *graph.Graph, seed int64, factory func(id int) SyncNode) *SyncEngine {
	eng := &SyncEngine{g: g, nodes: make([]SyncNode, g.N()), envs: make([]*SyncEnv, g.N())}
	for v := 0; v < g.N(); v++ {
		eng.nodes[v] = factory(v)
		env := &SyncEnv{
			ID:        v,
			Neighbors: g.Neighbors(v),
			engine:    eng,
		}
		env.Rand = newLazyRand(&env.rng, envSeed(seed, v))
		eng.envs[v] = env
	}
	return eng
}

// Reset re-arms the engine for a fresh run with new nodes and a new seed,
// reusing the per-node environments and scratch buffers. Each env's RNG is
// re-seeded to the stream NewSyncEngine would start, so a Reset engine is
// byte-for-byte equivalent to a freshly constructed one. Re-seeding only
// records the seed (the generator's state is filled on the node's first
// draw), so a phase in which no node draws initializes no RNG state at all.
// MaxRounds, Trace, Fault, Metrics and OnRound are cleared; callers set them
// again as needed. Workers persists: it configures the engine, not one run.
// The factory is called serially.
func (eng *SyncEngine) Reset(seed int64, factory func(id int) SyncNode) {
	for v := range eng.nodes {
		eng.nodes[v] = factory(v)
		env := eng.envs[v]
		env.Round = 0
		env.Advance = false
		env.outbox = env.outbox[:0]
		// rand.Rand.Seed also rewinds Read's buffered bytes, exactly as a
		// freshly constructed generator starts.
		env.Rand.Seed(envSeed(seed, v))
	}
	eng.MaxRounds = 0
	eng.Trace = nil
	eng.Fault = nil
	eng.Metrics = nil
	eng.OnRound = nil
}

// workerCount resolves Workers to the effective pool size for this engine.
func (eng *SyncEngine) workerCount() int {
	w := eng.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n := len(eng.nodes); w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Stats returns the accounting of the last Run.
func (eng *SyncEngine) Stats() Stats { return eng.stats }

// startPool launches the per-Run worker pool: workers parked on their
// dispatch channels, each owning the contiguous node shard [shardLo[w],
// shardHi[w]). The channels and shard tables are recycled across Runs when
// the worker count is unchanged.
func (eng *SyncEngine) startPool(workers int) {
	n := len(eng.nodes)
	if len(eng.work) != workers {
		eng.work = make([]chan poolOp, workers)
		eng.shardLo = make([]int, workers)
		eng.shardHi = make([]int, workers)
		for w := range eng.work {
			eng.work[w] = make(chan poolOp, 1)
		}
	}
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		eng.shardLo[w], eng.shardHi[w] = lo, hi
		go eng.workerLoop(w, eng.work[w])
	}
}

// stopPool releases the parked workers; their channels stay allocated for
// the next Run.
func (eng *SyncEngine) stopPool() {
	for _, ch := range eng.work {
		close(ch)
	}
	// Channels must be remade before reuse: a closed channel cannot carry
	// the next Run's tokens.
	for w := range eng.work {
		eng.work[w] = make(chan poolOp, 1)
	}
}

// workerLoop runs one pool worker: execute each dispatched phase over the
// worker's own shard, then report the barrier. Any panic is captured into
// the worker's error slot so the coordinator can fail the Run instead of
// the process dying (or deadlocking on a missing wg.Done).
func (eng *SyncEngine) workerLoop(w int, ops <-chan poolOp) {
	for op := range ops {
		eng.panics[w] = eng.runOp(w, op)
		eng.wg.Done()
	}
}

func (eng *SyncEngine) runOp(w int, op poolOp) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: engine worker: %v", r)
		}
	}()
	switch op {
	case opStep:
		return eng.runStripe(eng.round, eng.advance, eng.shardLo[w], eng.shardHi[w])
	case opDeliver:
		eng.deliverShard(eng.shardLo[w], eng.shardHi[w], eng.round)
	}
	return nil
}

// dispatch hands op to every worker and blocks until the barrier. The
// coordinator's writes to round/advance (and the previous phase's results)
// happen before the channel sends; the workers' writes happen before
// wg.Wait returns.
func (eng *SyncEngine) dispatch(op poolOp, workers int) error {
	eng.dispatchAsync(op, workers)
	return eng.await(workers)
}

// dispatchAsync hands op to every worker without waiting; the caller may
// overlap sequential work (trace emission) with the workers and must call
// await before touching any shard state.
func (eng *SyncEngine) dispatchAsync(op poolOp, workers int) {
	eng.wg.Add(workers)
	for w := 0; w < workers; w++ {
		eng.work[w] <- op
	}
}

func (eng *SyncEngine) await(workers int) error {
	eng.wg.Wait()
	for _, err := range eng.panics[:workers] {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes rounds until every node has reported termination and no
// messages remain in flight, or the round budget is exhausted (error).
// Crash-stopped nodes count as terminated; their pending traffic is dropped.
func (eng *SyncEngine) Run() error {
	defer func() { publishStats(eng.Metrics, "sync", eng.stats) }()
	n := eng.g.N()
	if err := eng.Fault.Validate(n); err != nil {
		return err
	}
	maxRounds := eng.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10_000 + 100*n
	}
	if eng.inboxes == nil {
		eng.inboxes = make([][]Message, n)
		eng.done = make([]bool, n)
		eng.doneSeen = make([]bool, n)
	} else {
		for v := 0; v < n; v++ {
			eng.inboxes[v] = eng.inboxes[v][:0]
			eng.done[v] = false
			eng.doneSeen[v] = false
		}
	}
	inboxes := eng.inboxes
	eng.stats = Stats{}
	plan := eng.Fault
	eng.injector.reset(plan, eng.Trace, &eng.stats)
	// future holds the messages the plan delays beyond the next round.
	var future map[int64][]Message
	if plan != nil {
		future = make(map[int64][]Message)
	}
	advance := true

	// Cache, per Run, which nodes implement the optional engine interfaces;
	// the round loop then iterates only implementors instead of
	// type-asserting every node every round.
	eng.sources = eng.sources[:0]
	eng.gates = eng.gates[:0]
	for v, nd := range eng.nodes {
		if src, ok := nd.(EventSource); ok {
			eng.sources = append(eng.sources, sourceAt{v: v, src: src})
		}
		if gate, ok := nd.(RoundGate); ok {
			eng.gates = append(eng.gates, gateAt{v: v, gate: gate})
		}
	}

	workers := eng.workerCount()
	if cap(eng.panics) < workers {
		eng.panics = make([]error, workers)
	}
	if workers > 1 {
		eng.startPool(workers)
		defer eng.stopPool()
	}

	for round := 0; ; round++ {
		if round > maxRounds {
			// Rounds 0..maxRounds ran: report them, as a quiescent run does.
			eng.stats.Rounds = int64(round)
			return fmt.Errorf("sim: synchronous run exceeded %d rounds", maxRounds)
		}

		// Mature delayed messages for this round, dropping arrivals into a
		// crash window. Delivery order within a round is the deterministic
		// order the messages were deferred in. A restart mark hands its node
		// the NodeRestarted notice this round.
		if future != nil {
			for _, m := range future[int64(round)] {
				if eng.injector.arrive(m, int64(round), false) {
					inboxes[m.To] = append(inboxes[m.To], m)
				}
			}
			delete(future, int64(round))
		}
		for _, mk := range eng.injector.fire(int64(round)) {
			if mk.kind == EventNodeRestart {
				inboxes[mk.node] = append(inboxes[mk.node], Message{From: -1, To: mk.node, Payload: NodeRestarted{Restarts: mk.gen}})
			}
		}

		if eng.quiescent(plan, int64(round), len(future) > 0) {
			eng.stats.Rounds = int64(round)
			return nil
		}
		if eng.Trace != nil {
			eng.Trace.Emit(Event{Kind: EventRoundStart, Time: int64(round)})
		}

		// Step phase: each worker owns a disjoint shard of nodes. A
		// panicking node aborts the run with an error instead of killing
		// the process. Nodes inside a crash window skip their step and lose
		// any queued input. With a single worker the shard runs inline — no
		// pool, no dispatch — and produces the identical sequential
		// semantics.
		if workers == 1 {
			if err := eng.runStripe(round, advance, 0, n); err != nil {
				return err
			}
		} else {
			eng.round, eng.advance = round, advance
			if err := eng.dispatch(opStep, workers); err != nil {
				return err
			}
		}

		// Drain events queued by protocol layers during the parallel step, in
		// node-id order, so the trace stays deterministic across worker
		// counts.
		for _, sa := range eng.sources {
			evs := sa.src.TakeEvents()
			if eng.Trace == nil {
				continue
			}
			for _, ev := range evs {
				eng.Trace.Emit(ev)
			}
		}

		if plan != nil {
			// Fault path: faults are decided message by message in one
			// sequential pass, so a single fault RNG yields identical fault
			// scripts regardless of the worker count.
			eng.deliverFaulty(future, round)
		} else {
			// Fault-free path: every send is delivered to round+1, so
			// delivery shards by destination — worker w scans all outboxes
			// in (node, seq) order and keeps the messages addressed to its
			// own shard, producing inboxes byte-identical to the sequential
			// merge. Sends are counted and traced from the sequential
			// section (the trace emission overlaps the workers' delivery:
			// both only read the outboxes).
			for v := 0; v < n; v++ {
				eng.stats.Messages += int64(len(eng.envs[v].outbox))
			}
			if workers == 1 {
				if eng.Trace != nil {
					eng.emitRoundTrace(round)
				}
				eng.deliverShard(0, n, round)
			} else {
				eng.round = round
				eng.dispatchAsync(opDeliver, workers)
				if eng.Trace != nil {
					eng.emitRoundTrace(round)
				}
				if err := eng.await(workers); err != nil {
					return err
				}
			}
		}

		// Probe hook: the round's steps have run and its sends are delivered;
		// no shard goroutine is mid-phase, so the hook may read node state.
		if eng.OnRound != nil {
			eng.OnRound(int64(round))
		}

		// Poll the logical-round synchronizer: the next physical round may
		// open a new logical round only when every live gated node has no
		// unacknowledged traffic outstanding.
		advance = true
		for _, ga := range eng.gates {
			if plan.CrashedAt(ga.v, int64(round+1)) {
				continue
			}
			if !ga.gate.GateReady() {
				advance = false
				break
			}
		}
	}
}

// quiescent reports global termination: every live node done and no traffic
// in flight.
func (eng *SyncEngine) quiescent(plan *FaultPlan, round int64, futurePending bool) bool {
	for v := range eng.done {
		if !eng.done[v] && !plan.DeadBy(v, round) {
			return false
		}
	}
	if futurePending {
		return false
	}
	for v := range eng.inboxes {
		if len(eng.inboxes[v]) > 0 {
			return false
		}
	}
	return true
}

// emitRoundTrace emits the round's send and node-termination events in the
// fixed (node, seq) order of the sequential engine. Fault-free path only:
// under a fault plan the events interleave with fault decisions inside
// deliverFaulty instead.
func (eng *SyncEngine) emitRoundTrace(round int) {
	for v := 0; v < len(eng.nodes); v++ {
		for _, m := range eng.envs[v].outbox {
			eng.Trace.Emit(Event{Kind: EventSend, Time: int64(round), From: m.From, To: m.To, Payload: payloadName(m.Payload)})
		}
		if eng.done[v] && !eng.doneSeen[v] {
			eng.doneSeen[v] = true
			eng.Trace.Emit(Event{Kind: EventNodeDone, Time: int64(round), From: v, To: -1})
		}
	}
}

// deliverShard clears and refills the inboxes of destination nodes in
// [dlo, dhi) from every node's outbox, in (sender, seq) order — the same
// order the sequential merge produces. Workers own disjoint destination
// ranges and only read the outboxes, so concurrent shards never conflict.
// Fault-free path only: every message matures exactly one round later.
func (eng *SyncEngine) deliverShard(dlo, dhi, round int) {
	for v := dlo; v < dhi; v++ {
		eng.inboxes[v] = eng.inboxes[v][:0]
	}
	when := int64(round + 1)
	for v := 0; v < len(eng.nodes); v++ {
		out := eng.envs[v].outbox
		for i := range out {
			to := out[i].To
			if to < dlo || to >= dhi {
				continue
			}
			m := out[i]
			m.When = when
			eng.inboxes[to] = append(eng.inboxes[to], m)
		}
	}
}

// deliverFaulty is the sequential delivery phase used under a fault plan:
// the injector decides each message's fate in (node, seq) order, so the
// fault script is a pure function of the plan seed. A crashed node's queued
// input is lost with it first (after the step barrier, so the trace stays
// ordered), and the round's trace events keep their canonical interleaving.
func (eng *SyncEngine) deliverFaulty(future map[int64][]Message, round int) {
	in := &eng.injector
	inboxes := eng.inboxes
	for v, inbox := range inboxes {
		for _, m := range inbox {
			in.arrive(m, int64(round), false)
		}
		inboxes[v] = inbox[:0]
	}
	for v := range inboxes {
		for _, m := range eng.envs[v].outbox {
			eng.stats.Messages++
			if eng.Trace != nil {
				eng.Trace.Emit(Event{Kind: EventSend, Time: int64(round), From: m.From, To: m.To, Payload: payloadName(m.Payload)})
			}
			m.When = int64(round + 1)
			when, dup, ok := in.transmit(m)
			if !ok {
				continue
			}
			if dup > 0 {
				d := m
				d.When = dup
				future[dup] = append(future[dup], d)
			}
			m.When = when
			if when > int64(round+1) {
				future[when] = append(future[when], m)
			} else {
				inboxes[m.To] = append(inboxes[m.To], m)
			}
		}
		if eng.Trace != nil && eng.done[v] && !eng.doneSeen[v] {
			eng.doneSeen[v] = true
			eng.Trace.Emit(Event{Kind: EventNodeDone, Time: int64(round), From: v, To: -1})
		}
	}
}

// runStripe steps the nodes in [lo, hi) for one round, converting a node
// panic into an error. Each stripe touches only its own nodes' state, which
// is what makes the parallel step deterministic.
func (eng *SyncEngine) runStripe(round int, advance bool, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: node step panicked: %v", r)
		}
	}()
	plan := eng.Fault
	for v := lo; v < hi; v++ {
		env := eng.envs[v]
		env.Round = round
		env.Advance = advance
		env.outbox = env.outbox[:0]
		if plan.CrashedAt(v, int64(round)) {
			continue
		}
		inbox := eng.inboxes[v]
		SortByFrom(inbox)
		eng.done[v] = eng.nodes[v].Step(env, inbox)
	}
	return nil
}

// SortByFrom stable-sorts messages by sender id in place. Inboxes are small
// and nearly sorted (outboxes drain in node order), so an insertion sort
// beats sort.SliceStable here and, unlike it, allocates nothing.
func SortByFrom(ms []Message) {
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && ms[j].From > m.From {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
}
