package core

import (
	"fmt"
	"sort"

	"fdlsp/internal/coloring"
	"fdlsp/internal/graph"
	"fdlsp/internal/obs"
	"fdlsp/internal/sim"
	"fdlsp/internal/transport"
)

// ChildPolicy selects which unvisited neighbor receives the DFS token next.
type ChildPolicy int

const (
	// MaxDegree passes to the unvisited neighbor with the largest degree
	// (ties to the lowest ID) — the paper's policy.
	MaxDegree ChildPolicy = iota
	// MinID passes to the lowest-ID unvisited neighbor (ablation).
	MinID
	// RandomChild passes to a uniformly random unvisited neighbor (ablation).
	RandomChild
)

func (p ChildPolicy) String() string {
	switch p {
	case MinID:
		return "min-id"
	case RandomChild:
		return "random"
	default:
		return "max-degree"
	}
}

// DFSOptions configures the asynchronous DFS algorithm.
type DFSOptions struct {
	Policy ChildPolicy
	Seed   int64
	// Delay optionally injects adversarial message delays (failure
	// injection); the schedule must stay valid regardless.
	Delay sim.DelayFn
	// Trace optionally observes engine events; must be concurrency-safe.
	Trace sim.Tracer
	// Fault optionally subjects the run to message loss, duplication,
	// reordering, and node crashes. When set, the protocol runs over the
	// reliable transport and the driver recovers from token loss with
	// restart epochs (see dfsConnected). nil keeps the original
	// zero-overhead direct path.
	Fault *sim.FaultPlan
	// Transport tunes the ARQ machinery when Fault is set (zero value =
	// defaults; invalid values are an error, see transport.Options.Validate);
	// ignored otherwise.
	Transport transport.Options
	// Metrics optionally receives the run's accounting: the per-component
	// engines publish fdlsp_sim_* families, the driver publishes
	// fdlsp_core_* and fdlsp_transport_* families when the run finishes.
	Metrics *obs.Registry
}

// Message payloads of the DFS protocol. The zero-size signals travel as
// values (boxing a zero-size struct is allocation-free); annMsg, ackMsg, and
// replyMsg carry data and travel as pointers into per-node slabs so the hot
// flood/ack traffic does not allocate per send.
type (
	startMsg  struct{}                   // injected kick-off at the root
	tokenMsg  struct{}                   // the DFS token
	bounceMsg struct{}                   // token refused: receiver already visited
	askMsg    struct{}                   // request for the neighbor's color table
	replyMsg  struct{ Table []arcColor } // color-table response
	annMsg    struct {                   // acknowledged color flood
		// Ann points into the sender's payload slab: one flood goes to
		// every live neighbor under distinct seqs, so the 48-byte announce
		// is stored once per flood, not once per message.
		Ann *ColorAnnounce
		Seq int64 // sender-local id echoed back by ackMsg
	}
	ackMsg struct{ Seq int64 } // annMsg fully processed, incl. everything it triggered
)

// noParent marks a flood batch with no completion action: the rejoin
// handshake's repair floods are acked hop-by-hop like any other batch, but
// their drain neither acks an upstream sender (the rejoiner originated them)
// nor resumes a token (the rejoiner does not hold one).
const noParent = -2

// floodGroup tracks one batch of flood messages awaiting acknowledgements
// (Dijkstra–Scholten-style diffusing-computation termination). A node that
// sends flood traffic — the token holder announcing its fresh colors, or any
// node relaying/re-originating on observe — acks upstream (or resumes the
// token, for the holder's own batch) only once every message in the batch
// has been acked, which in turn requires the receivers' whole cascades to
// have drained. The token therefore never moves until the previous holder's
// announcements are fully processed everywhere they can reach: without this
// barrier, a color colored at distance 3 races the token through a two-hop
// flood chain and the greedy conflict sets (hence the schedule) depend on
// goroutine scheduling.
type floodGroup struct {
	parent    int   // upstream sender to ack, or -1 for the token holder's own batch
	parentSeq int64 // seq to echo upstream
	remaining int
}

// outFlood is one in-flight flood message: its seq, the batch it belongs
// to, and its receiver (for PeerDown cleanup). Flights live in a slice
// ordered by seq — seqs are issued in increasing order and removal keeps
// the order — because the in-flight window is small (a few batches) and a
// map here churns buckets on every send/ack cycle of the protocol's
// hottest path.
type outFlood struct {
	seq  int64
	grp  *floodGroup
	dest int
}

// dfsNode is one processor of Algorithm 2. Its traversal state lives in
// struct fields (not Run locals) because a faulty run re-engages the same
// nodes across several engine runs — the recovery epochs — and knowledge,
// visit marks, and colored arcs must carry over.
type dfsNode struct {
	g       *graph.Graph
	know    *knowledge
	policy  ChildPolicy
	degrees map[int]int // neighbor -> degree (local model knowledge)
	faulty  bool

	ownColored []graph.Arc

	nextSeq int64
	flights []outFlood // in-flight floods awaiting acks, ascending seq

	anns slab[annMsg]        // pooled outgoing floods
	acks slab[ackMsg]        // pooled outgoing acks
	pays slab[ColorAnnounce] // pooled flood payloads, shared across a flood's receivers

	dests []int // sendFlood scratch: live neighbors of the current batch

	visited        map[int]bool
	struck         map[int]bool // visited marks that came from PeerDown, not a real visit
	selfVisited    bool
	parent         int
	awaitingChild  int
	pendingReplies int
	awaitingReply  map[int]bool // neighbors whose replyMsg is outstanding

	resyncMsgs int64 // rejoin-handshake messages originated by this node
}

func newDFSNode(g *graph.Graph, id int, policy ChildPolicy, faulty bool) *dfsNode {
	degs := make(map[int]int, g.Degree(id))
	for _, u := range g.NeighborsView(id) {
		degs[u] = g.Degree(u)
	}
	return &dfsNode{
		g:             g,
		know:          newKnowledge(id, g),
		policy:        policy,
		degrees:       degs,
		faulty:        faulty,
		visited:       make(map[int]bool, g.Degree(id)),
		struck:        make(map[int]bool),
		parent:        -1,
		awaitingChild: -1,
		awaitingReply: make(map[int]bool),
	}
}

// reopen clears the ask state of a node whose token visit stalled (a
// neighbor died holding the outstanding reply, or a reply's transport gave
// up) so a later epoch can re-visit and color it. Colors and knowledge are
// kept — the re-visit only colors what is still uncolored.
func (nd *dfsNode) reopen() {
	nd.selfVisited = false
	nd.parent = -1
	nd.awaitingChild = -1
	nd.pendingReplies = 0
	nd.awaitingReply = make(map[int]bool)
}

// sendFlood ships every announce in outs to all live neighbors as one
// acknowledged batch and returns the number of messages sent. parent == -1
// marks the token holder's own batch (token resumes on drain), noParent a
// rejoin repair batch (drain is a no-op); otherwise the drain acks (parent,
// parentSeq) upstream. Peers the transport has given up on are skipped —
// counting them would leave the batch undrainable.
func (nd *dfsNode) sendFlood(env *transport.AsyncEnv, outs []ColorAnnounce, parent int, parentSeq int64) int {
	dests := nd.dests[:0]
	for _, u := range env.Neighbors {
		if !env.Down(u) {
			dests = append(dests, u)
		}
	}
	nd.dests = dests
	if len(outs) == 0 || len(dests) == 0 {
		return 0
	}
	grp := &floodGroup{parent: parent, parentSeq: parentSeq, remaining: len(outs) * len(dests)}
	for _, f := range outs {
		fp := nd.pays.put(f)
		for _, u := range dests {
			nd.nextSeq++
			nd.flights = append(nd.flights, outFlood{seq: nd.nextSeq, grp: grp, dest: u})
			env.Send(u, nd.anns.put(annMsg{Ann: fp, Seq: nd.nextSeq}))
		}
	}
	return grp.remaining
}

// beginToken opens this node's visit: ask every live neighbor for its color
// table. With no live neighbor there is nothing to learn (or conflict with),
// so the visit completes immediately.
func (nd *dfsNode) beginToken(env *transport.AsyncEnv) {
	nd.pendingReplies = 0
	for _, u := range env.Neighbors {
		if env.Down(u) {
			continue
		}
		nd.pendingReplies++
		nd.awaitingReply[u] = true
		env.Send(u, askMsg{})
	}
	if nd.pendingReplies == 0 {
		nd.completeToken(env)
	}
}

// completeToken runs once all replies are merged: color every still-uncolored
// incident arc with distance-2 knowledge, then announce. Arcs to peers known
// dead are skipped — they are excluded from the schedule anyway. The token
// pass waits for the announce flood to drain (see floodGroup) so the next
// holder's knowledge is independent of goroutine scheduling.
func (nd *dfsNode) completeToken(env *transport.AsyncEnv) {
	arcs := nd.g.IncidentArcsView(env.ID)
	if nd.faulty {
		live := make([]graph.Arc, 0, len(arcs))
		for _, a := range arcs {
			other := a.From
			if other == env.ID {
				other = a.To
			}
			if !env.Down(other) {
				live = append(live, a)
			}
		}
		arcs = live
	}
	newly := coloring.AssignGreedyLocal(nd.g, nd.know.know, arcs)
	nd.ownColored = append(nd.ownColored, newly...)
	if nd.sendFlood(env, nd.know.announceOwn(newly), -1, 0) == 0 {
		nd.passToken(env)
	}
}

// findFlight returns the index of seq in the ascending flights slice, or
// -1 when the seq is not in flight (already drained).
func (nd *dfsNode) findFlight(seq int64) int {
	i := sort.Search(len(nd.flights), func(i int) bool { return nd.flights[i].seq >= seq })
	if i < len(nd.flights) && nd.flights[i].seq == seq {
		return i
	}
	return -1
}

// drainSeq retires one outstanding flood seq (acked, or its receiver was
// given up on) and fires the batch's completion action when it empties.
func (nd *dfsNode) drainSeq(env *transport.AsyncEnv, seq int64) {
	i := nd.findFlight(seq)
	if i < 0 {
		return
	}
	grp := nd.flights[i].grp
	copy(nd.flights[i:], nd.flights[i+1:])
	nd.flights[len(nd.flights)-1] = outFlood{} // release the group reference
	nd.flights = nd.flights[:len(nd.flights)-1]
	grp.remaining--
	if grp.remaining == 0 {
		switch {
		case grp.parent >= 0:
			env.Send(grp.parent, nd.acks.put(ackMsg{Seq: grp.parentSeq}))
		case grp.parent == noParent:
			// Rejoin repair batch: fully delivered, nothing to resume.
		default:
			nd.passToken(env)
		}
	}
}

// peerDown is the node's failure-detector handler. The dead neighbor is
// struck from the unvisited record, every flood seq destined to it drains,
// and an outstanding reply from it stops being waited for. If the peer was
// the awaited child the node deliberately does NOT repick: the transport
// cannot tell whether the token died with the peer or was never delivered,
// and forwarding a replacement while the original might still roam would put
// two tokens in flight. The traversal quiesces instead and the driver's next
// epoch restarts it from a surviving root.
func (nd *dfsNode) peerDown(env *transport.AsyncEnv, peer int) {
	if !nd.visited[peer] {
		// Remember the mark came from the failure detector, not a real
		// visit, so a later PeerUp can rescind it.
		nd.struck[peer] = true
	}
	nd.visited[peer] = true
	// flights is ascending by seq, so collecting in slice order preserves
	// the drain order the protocol's traces pin.
	var seqs []int64
	for _, fl := range nd.flights {
		if fl.dest == peer {
			seqs = append(seqs, fl.seq)
		}
	}
	for _, q := range seqs {
		nd.drainSeq(env, q)
	}
	if nd.awaitingReply[peer] {
		delete(nd.awaitingReply, peer)
		nd.pendingReplies--
		if nd.pendingReplies == 0 {
			nd.completeToken(env)
		}
	}
}

// rejoin runs the protocol-level crash-recovery handshake when this node's
// outage ends (see rejoin.go): pull the neighborhood's colors with resyncReq
// and push this node's own incident colors under a bumped generation as an
// acked repair batch. Traversal state needs no touch-up — token passes,
// replies, and acks in flight across the outage ride the reliable transport
// and resume on their own once the restart notice re-arms the timers.
func (nd *dfsNode) rejoin(env *transport.AsyncEnv, restarts int) {
	for _, u := range env.Neighbors {
		if env.Down(u) {
			continue
		}
		nd.resyncMsgs++
		env.Send(u, resyncReq{})
	}
	nd.resyncMsgs += int64(nd.sendFlood(env, nd.know.reannounce(restarts), noParent, 0))
}

// peerUp handles a rescinded give-up: the peer is reachable after all. A
// visited mark that came only from the failure detector is withdrawn so the
// traversal can still pass the token there (a genuinely visited peer just
// bounces it back). If this node has itself restarted, it re-asks the peer
// for colors — its original resyncReq may have been suppressed while the
// peer was marked down.
func (nd *dfsNode) peerUp(env *transport.AsyncEnv, peer int) {
	if nd.struck[peer] {
		delete(nd.struck, peer)
		delete(nd.visited, peer)
	}
	if nd.know.gen > 0 {
		nd.resyncMsgs++
		env.Send(peer, resyncReq{})
	}
}

func (nd *dfsNode) Run(env *transport.AsyncEnv) {
	for {
		m, ok := env.Recv()
		if !ok {
			return
		}
		switch p := m.Payload.(type) {
		case startMsg:
			nd.selfVisited = true
			nd.beginToken(env)
		case askMsg:
			// The asker holds the token, hence is visited (paper: a neighbor
			// asking about colors is removed from the unvisited record).
			nd.visited[m.From] = true
			env.Send(m.From, &replyMsg{Table: nd.know.snapshotLocal()})
		case *replyMsg:
			nd.know.merge(p.Table)
			if nd.awaitingReply[m.From] {
				delete(nd.awaitingReply, m.From)
				nd.pendingReplies--
				if nd.pendingReplies == 0 {
					nd.completeToken(env)
				}
			}
		case tokenMsg:
			switch {
			case !nd.selfVisited:
				nd.selfVisited = true
				nd.parent = m.From
				nd.visited[m.From] = true
				nd.beginToken(env)
			case m.From == nd.awaitingChild:
				// Child finished its subtree; resume.
				nd.awaitingChild = -1
				nd.passToken(env)
			default:
				// Spurious pass from a node that had not yet heard we were
				// visited (asynchrony): refuse, sender will repick.
				env.Send(m.From, bounceMsg{})
			}
		case bounceMsg:
			if m.From == nd.awaitingChild {
				nd.awaitingChild = -1
				nd.passToken(env)
			}
		case *annMsg:
			// Everything observe triggers (relays, endpoint re-floods) joins
			// one batch; the upstream ack waits for that batch to drain. A
			// flood that triggers nothing here is acked immediately.
			if nd.sendFlood(env, nd.know.observe(*p.Ann), m.From, p.Seq) == 0 {
				env.Send(m.From, nd.acks.put(ackMsg{Seq: p.Seq}))
			}
		case *ackMsg:
			if nd.findFlight(p.Seq) < 0 && !nd.faulty {
				panic(fmt.Sprintf("core: DFS node %d got ack for unknown seq %d", env.ID, p.Seq))
			}
			// Under faults a late ack may race the PeerDown that already
			// drained its seq (the peer answered, then its link died);
			// drainSeq ignores retired seqs.
			nd.drainSeq(env, p.Seq)
		case transport.PeerDown:
			nd.peerDown(env, p.Peer)
		case transport.PeerUp:
			nd.peerUp(env, p.Peer)
		case sim.NodeRestarted:
			nd.rejoin(env, p.Restarts)
		case resyncReq:
			nd.resyncMsgs++
			env.Send(m.From, &resyncReply{Table: nd.know.snapshotLocal()})
		case *resyncReply:
			// Colors of own incident arcs learned from the reply are pushed
			// back out as a repair batch (the arc was colored by a neighbor
			// during this node's outage; 2-hop witnesses behind this node
			// may have missed it).
			nd.resyncMsgs += int64(nd.sendFlood(env, nd.know.mergeIncident(p.Table), noParent, 0))
		default:
			panic(fmt.Sprintf("core: DFS node %d got unexpected payload %T", env.ID, m.Payload))
		}
	}
}

// passToken forwards the token to the next unvisited neighbor per policy,
// returns it to the parent when none remain, or — at the root — declares the
// protocol finished. A send to a peer that died undetected is suppressed or
// given up on by the transport; the traversal then quiesces and the driver
// recovers with a new epoch.
func (nd *dfsNode) passToken(env *transport.AsyncEnv) {
	var cands []int
	for _, u := range env.Neighbors {
		if !nd.visited[u] {
			cands = append(cands, u)
		}
	}
	if len(cands) > 0 {
		next := nd.pickChild(env, cands)
		nd.visited[next] = true
		nd.awaitingChild = next
		env.Send(next, tokenMsg{})
		return
	}
	if nd.parent >= 0 {
		env.Send(nd.parent, tokenMsg{})
		return
	}
	// Root with its reachable subgraph visited: global termination.
	env.FinishAll()
}

func (nd *dfsNode) pickChild(env *transport.AsyncEnv, cands []int) int {
	switch nd.policy {
	case MinID:
		best := cands[0]
		for _, u := range cands[1:] {
			if u < best {
				best = u
			}
		}
		return best
	case RandomChild:
		return cands[env.Rand.Intn(len(cands))]
	default: // MaxDegree, ties to lowest ID
		sort.Ints(cands)
		best := cands[0]
		for _, u := range cands[1:] {
			if nd.degrees[u] > nd.degrees[best] {
				best = u
			}
		}
		return best
	}
}

// DFS runs Algorithm 2 on g. Disconnected inputs are scheduled per
// component (each component elects its own root and runs its own token);
// reported rounds are the maximum across components — they run in parallel —
// and messages are summed. Under a fault plan each component gets the plan
// restricted to its own nodes.
func DFS(g *graph.Graph, opts DFSOptions) (*Result, error) {
	if opts.Fault != nil {
		if err := opts.Transport.Validate(); err != nil {
			return nil, err
		}
	}
	as := coloring.NewAssignment(g)
	var total sim.Stats
	var ttot transport.Totals
	var crashed []int
	var rejoin RejoinStats
	for ci, comp := range g.Components() {
		sub, ids := g.InducedSubgraph(comp)
		subOpts := opts
		subOpts.Fault = remapPlan(opts.Fault, ids, int64(ci))
		subAs, stats, tt, subCrashed, subRejoin, err := dfsConnected(sub, subOpts, opts.Seed+int64(ci)*7_368_787)
		if err != nil {
			return nil, err
		}
		for a, c := range subAs {
			as[graph.Arc{From: ids[a.From], To: ids[a.To]}] = c
		}
		for _, v := range subCrashed {
			crashed = append(crashed, ids[v])
		}
		for _, v := range subRejoin.Returned {
			rejoin.Returned = append(rejoin.Returned, ids[v])
		}
		rejoin.ResyncMsgs += subRejoin.ResyncMsgs
		rejoin.Rebased += subRejoin.Rebased
		rounds := total.Rounds
		if stats.Rounds > rounds {
			rounds = stats.Rounds
		}
		total.Add(stats)
		total.Rounds = rounds
		ttot.Add(transport.Totals{Counters: tt.Counters})
	}
	crashed = sortedUnique(crashed)
	rejoin.Returned = sortedUnique(rejoin.Returned)
	dead := deadMask(g.N(), crashed)
	for _, a := range g.Arcs() {
		if !arcAlive(a, dead) {
			continue
		}
		if as[a] == coloring.None {
			return nil, fmt.Errorf("core: DFS left arc %v uncolored", a)
		}
	}
	res := &Result{
		Algorithm:      "dfs/" + opts.Policy.String(),
		Assignment:     as,
		Slots:          as.NumColors(),
		DistinctColors: as.DistinctColors(),
		Stats:          total,
		Crashed:        crashed,
		Rejoin:         rejoin,
		Transport:      ttot,
	}
	publishResult(opts.Metrics, "dfs", res)
	return res, nil
}

// remapPlan restricts a fault plan to one component, translating global node
// ids to the induced subgraph's local ids (ids maps local -> global). Each
// component's engine gets its own salted fault RNG.
func remapPlan(p *sim.FaultPlan, ids []int, salt int64) *sim.FaultPlan {
	if p == nil {
		return nil
	}
	inv := make(map[int]int, len(ids))
	for local, global := range ids {
		inv[global] = local
	}
	q := &sim.FaultPlan{
		Seed:    p.Seed ^ (salt+1)*0x41C64E6D,
		Loss:    p.Loss,
		Dup:     p.Dup,
		Reorder: p.Reorder,
	}
	if lossOf := p.LossOf; lossOf != nil {
		q.LossOf = func(from, to int) float64 { return lossOf(ids[from], ids[to]) }
	}
	for _, c := range p.Crashes {
		if local, ok := inv[c.Node]; ok {
			q.Crashes = append(q.Crashes, sim.Crash{Node: local, At: c.At, RestartAt: c.RestartAt})
		}
	}
	for _, v := range p.Rejoins {
		if local, ok := inv[v]; ok {
			q.Rejoins = append(q.Rejoins, local)
		}
	}
	return q
}

// dfsConnected schedules one connected graph. Fault-free runs are a single
// engine run, exactly the original algorithm. Under a fault plan the driver
// runs recovery epochs: whenever a crash strands the token (dead holder,
// dead awaited child, undeliverable pass), the run quiesces — the transport
// gives up, PeerDown handlers fire, and no node has anything left to say —
// and the driver starts a fresh engine over the same nodes, with dead peers
// pre-marked both down (transport) and visited (traversal), rooted at the
// highest-degree unvisited survivor. Visits stranded mid-ask — or cut short
// by an outage, leaving live incident arcs uncolored — are reopened so a
// later epoch re-visits and colors only what is missing. Bounded outages
// resolve inside the epoch that covers the restart time (the restart notice
// is itself a scheduled event, so the engine cannot quiesce before it), and
// the returned node rejoins in-protocol; only genuinely stuck runs — no new
// visit, color, crash, or rejoin for several consecutive epochs — abort.
func dfsConnected(g *graph.Graph, opts DFSOptions, seed int64) (coloring.Assignment, sim.Stats, transport.Totals, []int, RejoinStats, error) {
	if g.N() == 0 {
		return coloring.Assignment{}, sim.Stats{}, transport.Totals{}, nil, RejoinStats{}, nil
	}
	faulty := opts.Fault != nil
	var topt *transport.Options
	if faulty {
		t := opts.Transport
		topt = &t
	}

	n := g.N()
	nodes := make([]*dfsNode, n)
	for id := 0; id < n; id++ {
		nodes[id] = newDFSNode(g, id, opts.Policy, faulty)
	}

	var total sim.Stats
	var ttot transport.Totals
	var rejoin RejoinStats
	dead := make([]bool, n)
	returnedMask := make([]bool, n)
	everVisited := make([]bool, n)
	elapsed := int64(0)

	// n live roots plus crash retries bound fault-free epochs; every bounded
	// outage can burn two more (one rooted at a node still inside its
	// window, one to re-visit it after the rejoin).
	maxEpochs := 2*n + 2
	if faulty {
		maxEpochs = 2*n + 4*len(opts.Fault.Crashes) + 8
	}
	noProgress := 0

	for epoch := 0; ; epoch++ {
		root := electRoot(g)
		if epoch > 0 {
			root = nextRoot(g, nodes, dead)
			if root < 0 {
				break
			}
		}
		if epoch > maxEpochs {
			return nil, sim.Stats{}, transport.Totals{}, nil, RejoinStats{}, fmt.Errorf("core: DFS exceeded %d recovery epochs", maxEpochs)
		}
		if epoch > 0 {
			rejoin.Rebased++
		}

		deadIds := deadList(dead)
		for v := 0; v < n; v++ {
			if dead[v] {
				continue
			}
			for _, u := range deadIds {
				nodes[v].visited[u] = true
			}
		}
		coloredBefore := countColored(nodes)
		wraps := make([]*transport.Async, n)
		eng := sim.NewAsyncEngine(g, seed+int64(epoch)*15_485_863, func(id int) sim.AsyncNode {
			wraps[id] = transport.NewAsync(nodes[id], topt)
			wraps[id].MarkDown(deadIds...)
			return wraps[id]
		})
		eng.Delay = opts.Delay
		eng.Trace = opts.Trace
		eng.Metrics = opts.Metrics
		if faulty {
			eng.Fault = opts.Fault.Shifted(elapsed, int64(epoch))
		}
		eng.Inject(root, startMsg{})
		if err := eng.Run(); err != nil {
			return nil, sim.Stats{}, transport.Totals{}, nil, RejoinStats{}, err
		}
		st := eng.Stats()
		total.Add(st)
		elapsed += st.Rounds
		ttot.Add(transport.Collect(wraps))
		progress := mergeCrashed(dead, eng.Crashed())
		for _, v := range eng.Returned() {
			if !returnedMask[v] {
				returnedMask[v] = true
				progress++
			}
		}
		for v := 0; v < n; v++ {
			if nodes[v].selfVisited && !everVisited[v] {
				everVisited[v] = true
				progress++
			}
		}
		progress += countColored(nodes) - coloredBefore
		if !faulty {
			break
		}
		if progress == 0 {
			// Tolerate a couple of barren epochs (a freak give-up can void a
			// visit without any counter moving) before declaring livelock.
			if noProgress++; noProgress > 2 {
				return nil, sim.Stats{}, transport.Totals{}, nil, RejoinStats{},
					fmt.Errorf("core: DFS made no progress for %d consecutive recovery epochs", noProgress)
			}
		} else {
			noProgress = 0
		}
		// Cross-epoch cleanup: in-flight batches died with the epoch's
		// transport, and a visit left mid-ask, mid-flood, or awaiting a
		// child token must be redone — as must one whose coloring an outage
		// cut short (live incident arcs still uncolored).
		for v := 0; v < n; v++ {
			if dead[v] {
				continue
			}
			nd := nodes[v]
			stale := nd.pendingReplies > 0 || nd.awaitingChild >= 0 || len(nd.flights) > 0
			clear(nd.flights) // release group references
			nd.flights = nd.flights[:0]
			if stale || needsRecolor(g, nd, dead) {
				nd.reopen()
			}
		}
	}

	// Size by what the survivors actually colored, not the full graph:
	// crash runs discard dead nodes' arcs.
	count := 0
	for _, nd := range nodes {
		count += len(nd.ownColored)
	}
	as := coloring.NewAssignmentSized(count)
	for id, nd := range nodes {
		rejoin.ResyncMsgs += nd.resyncMsgs
		for _, a := range nd.ownColored {
			if !arcAlive(a, dead) {
				continue
			}
			c := nd.know.know[a]
			if c == coloring.None {
				return nil, sim.Stats{}, transport.Totals{}, nil, RejoinStats{}, fmt.Errorf("core: DFS node %d lost color of %v", id, a)
			}
			if prev, ok := as[a]; ok && prev != c {
				return nil, sim.Stats{}, transport.Totals{}, nil, RejoinStats{}, fmt.Errorf("core: DFS arc %v colored twice (%d, %d)", a, prev, c)
			}
			as[a] = c
		}
	}
	for v := 0; v < n; v++ {
		if returnedMask[v] && !dead[v] {
			rejoin.Returned = append(rejoin.Returned, v)
		}
	}
	return as, total, ttot, deadList(dead), rejoin, nil
}

// countColored sums the arcs every node has colored itself so far (the
// driver's cross-epoch progress metric).
func countColored(nodes []*dfsNode) int {
	total := 0
	for _, nd := range nodes {
		total += len(nd.ownColored)
	}
	return total
}

// needsRecolor reports whether v is responsible for a live incident arc it
// has no color for: its visit was cut short (an outage of its own, or a
// false give-up that skipped arcs), so a later epoch must re-visit it.
func needsRecolor(g *graph.Graph, nd *dfsNode, dead []bool) bool {
	for _, a := range g.IncidentArcsView(nd.know.id) {
		if arcAlive(a, dead) && nd.know.know[a] == coloring.None {
			return true
		}
	}
	return false
}

// nextRoot picks a recovery epoch's root: the highest-degree unvisited
// survivor (ties to the lowest id), or -1 when every survivor is visited.
func nextRoot(g *graph.Graph, nodes []*dfsNode, dead []bool) int {
	root := -1
	for v := 0; v < g.N(); v++ {
		if dead[v] || nodes[v].selfVisited {
			continue
		}
		if root < 0 || g.Degree(v) > g.Degree(root) {
			root = v
		}
	}
	return root
}

// electRoot returns the designated starting node: maximum degree, ties to
// the lowest ID.
func electRoot(g *graph.Graph) int {
	root := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(root) {
			root = v
		}
	}
	return root
}
