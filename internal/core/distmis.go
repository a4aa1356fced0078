package core

import (
	"fmt"

	"fdlsp/internal/coloring"
	"fdlsp/internal/graph"
	"fdlsp/internal/mis"
	"fdlsp/internal/obs"
	"fdlsp/internal/sim"
	"fdlsp/internal/transport"
)

// Variant selects between the paper's two DistMIS flavours.
type Variant int

const (
	// GBG is the growth-bounded-graph variant (Section 5): the secondary MIS
	// competes over distance-3 and winners color all their incident arcs.
	GBG Variant = iota
	// General is the general-graph variant (Section 6): the secondary MIS
	// competes over distance-2 and winners color only their outgoing arcs,
	// cutting the number of secondary competitions by a factor of Δ.
	General
)

func (v Variant) String() string {
	if v == General {
		return "general"
	}
	return "gbg"
}

// Options configures a DistMIS run.
type Options struct {
	// Drawer is the MIS value strategy; nil means mis.Luby().
	Drawer mis.Drawer
	// Variant selects the GBG (default) or general-graph algorithm.
	Variant Variant
	// Seed drives all randomness in the run.
	Seed int64
	// Trace optionally observes every phase engine's events (rounds, sends,
	// node terminations); it must be safe for concurrent use.
	Trace sim.Tracer
	// Fault optionally subjects the run to message loss, duplication,
	// reordering, and node crashes. When set, every phase runs over the
	// reliable transport (internal/transport) and the run tolerates
	// crash-stop failures: a crashed node's arcs are excluded from the
	// schedule, which then covers exactly the surviving subgraph
	// (SurvivingGraph). nil keeps the original zero-overhead direct path.
	Fault *sim.FaultPlan
	// Transport tunes the ARQ machinery when Fault is set (zero value =
	// defaults; invalid values are an error, see transport.Options.Validate);
	// ignored otherwise.
	Transport transport.Options
	// Metrics optionally receives the run's accounting: the phase engines
	// publish fdlsp_sim_* families, the driver publishes fdlsp_core_* and
	// fdlsp_transport_* families when the run finishes. Values derive only
	// from deterministic per-seed accounting, so equal seeds yield
	// byte-identical registry snapshots.
	Metrics *obs.Registry
	// Probe, when set, observes the run in progress: it is invoked from each
	// phase engine's sequential section every ProbeEvery rounds (default:
	// every round) with a ProbePoint giving the phase, round, and read access
	// to the nodes' partial schedule. The protocol is not stopped — the hook
	// runs between rounds with no node goroutines alive — so drivers can
	// measure repair-in-progress quantities (residual conflicts, usable frame
	// fraction) while the algorithm heals. The hook must not mutate protocol
	// or engine state, and it runs on the synchronous (DistMIS) path only.
	Probe func(ProbePoint)
	// ProbeEvery is the probing period in physical rounds; values < 1 mean 1.
	ProbeEvery int64
	// Workers bounds the phase engines' worker pool (sim.SyncEngine.Workers):
	// 0 means GOMAXPROCS, 1 forces serial execution. Results, traces, and
	// metrics are byte-identical per seed at every setting — the knob only
	// trades wall clock for cores.
	Workers int
}

// Result is the outcome of one scheduling run (any algorithm).
type Result struct {
	Algorithm  string
	Assignment coloring.Assignment
	Slots      int // number of TDMA time slots used (largest color = frame length)
	// DistinctColors counts the colors actually used. Complete fault-free
	// greedy schedules use every slot up to Slots, so the two agree; crash
	// recovery can retire colors and leave gaps, making DistinctColors <
	// Slots (the frame still needs Slots slots — gaps are idle slots).
	DistinctColors int
	Stats          sim.Stats // communication rounds and messages
	// OuterIters counts primary-MIS phases and InnerIters secondary-MIS
	// phases (DistMIS only; zero for other algorithms).
	OuterIters int
	InnerIters int
	// Breakdown splits Stats by protocol phase (DistMIS fills
	// "primary-mis", "secondary-mis" and "coloring"); the parts sum to
	// Stats. Nil for algorithms without phases.
	Breakdown map[string]sim.Stats
	// Crashed lists the nodes that crash-stopped during the run (faulty runs
	// only), ascending. Nodes with bounded outages are NOT listed: they
	// rejoin in-protocol and appear in Rejoin.Returned instead, and their
	// arcs are part of the schedule. The Assignment covers the arcs of
	// SurvivingGraph(g, Crashed).
	Crashed []int
	// Rejoin accounts for protocol-level crash recovery: which nodes
	// returned from an outage and what the re-sync handshake cost.
	Rejoin RejoinStats
	// Transport aggregates the reliable-transport accounting across all
	// phase engines (faulty runs only; zero otherwise).
	Transport transport.Totals
}

// nodeState is the persistent per-node state shared across the phase
// engines of one DistMIS run.
type nodeState struct {
	id         int
	removed    bool
	know       *knowledge
	ownColored []graph.Arc
	resyncMsgs int64 // rejoin-handshake messages originated by this node

	// anns and floods pool the pointer payloads this node sends; the phase
	// nodes below are allocated once per run and re-armed per phase.
	anns      slab[ColorAnnounce]
	floods    slab[mis.Flood]
	misNode   *misPhaseNode
	colorNode *colorPhaseNode
}

// DistMIS runs Algorithm 1 on g and returns the schedule. The run is a
// sequence of synchronous sub-protocols on the sim engine — primary MIS,
// secondary MIS (flooded competition over distance 2 or 3), coloring wave —
// whose rounds and messages are accumulated; the simulator detects each
// phase's global completion in lieu of the analytical worst-case round
// bounds a deployed synchronous protocol would use (see DESIGN.md).
//
// Under a fault plan the phases run on the reliable transport and the
// driver treats crash-stopped nodes as permanently gone: they stop
// competing, their arcs are skipped by colorers and by the final assembly,
// and empty competitions caused by a mid-phase crash are retried. Logical
// rounds are rebuilt by the engine's RoundGate synchronizer, so the
// competition logic itself is unchanged (see DESIGN.md, "Failure model").
func DistMIS(g *graph.Graph, opts Options) (*Result, error) {
	drawer := opts.Drawer
	if drawer == nil {
		drawer = mis.Luby()
	}
	radius := 3
	if opts.Variant == General {
		radius = 2
	}
	faulty := opts.Fault != nil
	var topt *transport.Options
	if faulty {
		if err := opts.Transport.Validate(); err != nil {
			return nil, err
		}
		t := opts.Transport
		topt = &t
	}

	n := g.N()
	states := make([]*nodeState, n)
	for v := 0; v < n; v++ {
		states[v] = &nodeState{id: v, know: newKnowledge(v, g, 2)}
		states[v].know.tolerant = faulty
	}

	var total sim.Stats
	var ttot transport.Totals
	breakdown := map[string]sim.Stats{}
	dead := make([]bool, n)
	returnedMask := make([]bool, n)
	elapsed := int64(0)
	// notePhase folds one phase's accounting into the run totals and reports
	// the fault churn: fresh permanently-dead nodes and completed rejoins. A
	// node that crashes and returns within the same phase shows up only in
	// returned; dead tracks crash-stops, never transient outages.
	notePhase := func(name string, st sim.Stats, tt transport.Totals, crashed, returned []int) (fresh, back int) {
		total.Add(st)
		b := breakdown[name]
		b.Add(st)
		breakdown[name] = b
		ttot.Add(tt)
		elapsed += st.Rounds
		for _, v := range returned {
			returnedMask[v] = true
		}
		return mergeCrashed(dead, crashed), len(returned)
	}
	var outer, inner int
	phase := int64(0)
	nextSeed := func() int64 {
		phase++
		return opts.Seed + phase*1_000_003
	}
	// Each phase gets the plan re-based to its own round zero (crash times
	// shift with the rounds already elapsed) and a phase-salted fault RNG.
	shiftedPlan := func() *sim.FaultPlan {
		if !faulty {
			return nil
		}
		return opts.Fault.Shifted(elapsed, phase)
	}

	// Removal makes progress at most n times and crash retries at most n
	// more, so 2n+2 outer iterations means a fault-free run is stuck. Every
	// completed outage can additionally void one primary selection (the
	// returned node abstains) and keep its h-members unretired for one extra
	// round trip, so restart plans widen both budgets.
	maxOuter := 2*n + 2
	maxInner := 4*n + 8
	if faulty {
		maxOuter += 4 * len(opts.Fault.Crashes)
		maxInner += 4 * len(opts.Fault.Crashes)
	}

	pr := newPhaseRunner(g, states, topt, opts.Trace, opts.Metrics)
	pr.probe = opts.Probe
	pr.probeEvery = opts.ProbeEvery
	pr.workers = opts.Workers

	for {
		competing := make([]bool, n)
		anyActive := false
		for v := 0; v < n; v++ {
			if !states[v].removed && !dead[v] {
				competing[v] = true
				anyActive = true
			}
		}
		if !anyActive {
			break
		}
		if outer > maxOuter {
			return nil, fmt.Errorf("core: DistMIS exceeded %d outer iterations", maxOuter)
		}
		outer++

		// Primary MIS among active nodes (radius-1 competition).
		seed := nextSeed()
		statuses, stats, tt, crashed, returned, err := pr.competition(seed, 1, competing, drawer, shiftedPlan(), deadList(dead))
		if err != nil {
			return nil, fmt.Errorf("core: DistMIS primary MIS: %w", err)
		}
		fresh, back := notePhase("primary-mis", stats, tt, crashed, returned)

		inS := make([]bool, n)
		remaining := 0
		for v := 0; v < n; v++ {
			if competing[v] && !dead[v] && statuses[v] == mis.InMIS {
				inS[v] = true
				remaining++
			}
		}
		if remaining == 0 {
			// A mid-phase crash can empty the selection (the only winners
			// died), and so can a mid-phase rejoin (returned nodes abstain);
			// the survivors simply recompete. Without either, an empty MIS
			// among live competitors is a protocol bug.
			if faulty && (fresh > 0 || back > 0) {
				continue
			}
			return nil, fmt.Errorf("core: DistMIS primary MIS selected nobody")
		}
		h := append([]bool(nil), inS...)

		// Inner loop: peel secondary MISes off S until S is exhausted.
		for remaining > 0 {
			if inner > maxInner {
				return nil, fmt.Errorf("core: DistMIS exceeded %d inner iterations", maxInner)
			}
			inner++
			seed := nextSeed()
			statuses, stats, tt, crashed, returned, err := pr.competition(seed, radius, inS, drawer, shiftedPlan(), deadList(dead))
			if err != nil {
				return nil, fmt.Errorf("core: DistMIS secondary MIS: %w", err)
			}
			fresh, back := notePhase("secondary-mis", stats, tt, crashed, returned)
			remaining -= dropDead(inS, dead)

			selected := make([]bool, n)
			selCount := 0
			for v := 0; v < n; v++ {
				if inS[v] && statuses[v] == mis.InMIS {
					selected[v] = true
					selCount++
				}
			}
			if faulty {
				// Message loss can sever a competition into vacuous multiple
				// winners; keep the lowest-id winner of any violating pair
				// (the dropped ones recompete).
				selCount -= enforceIndependence(g, radius, selected)
			}
			if selCount == 0 {
				if remaining == 0 {
					break
				}
				if faulty && (fresh > 0 || back > 0) {
					continue
				}
				return nil, fmt.Errorf("core: DistMIS secondary MIS selected nobody")
			}
			seed = nextSeed()
			stats, tt, crashed, returned, err = pr.color(seed, selected, opts.Variant, dead, shiftedPlan(), deadList(dead))
			if err != nil {
				return nil, fmt.Errorf("core: DistMIS color phase: %w", err)
			}
			notePhase("coloring", stats, tt, crashed, returned)
			remaining -= dropDead(inS, dead)
			for v := 0; v < n; v++ {
				if selected[v] && inS[v] {
					inS[v] = false
					remaining--
				}
			}
		}
		for v := 0; v < n; v++ {
			if !h[v] {
				continue
			}
			// Under faults an h-member's coloring can be cut short — its own
			// outage cancels a pending win, a peer's outage can strand an
			// announce — so it only retires once its standard arc set is
			// fully colored; otherwise it recompetes and no arc stays
			// permanently excluded. Fault-free runs retire unconditionally,
			// exactly as before.
			if !faulty || dead[v] || standardSetColored(g, states[v], opts.Variant, dead) {
				states[v].removed = true
			}
		}
	}

	as, err := assemble(g, dead, func(v int) ([]graph.Arc, *knowledge) {
		return states[v].ownColored, states[v].know
	})
	if err != nil {
		return nil, err
	}
	rej := RejoinStats{}
	for v := 0; v < n; v++ {
		rej.ResyncMsgs += states[v].resyncMsgs
		if returnedMask[v] && !dead[v] {
			rej.Returned = append(rej.Returned, v)
		}
	}
	res := &Result{
		Algorithm:      "distMIS-" + opts.Variant.String() + "/" + drawer.Name(),
		Assignment:     as,
		Slots:          as.NumColors(),
		DistinctColors: as.DistinctColors(),
		Stats:          total,
		OuterIters:     outer,
		InnerIters:     inner,
		Breakdown:      breakdown,
		Crashed:        deadList(dead),
		Rejoin:         rej,
		Transport:      ttot,
	}
	publishResult(opts.Metrics, "distmis", res)
	return res, nil
}

// dropDead clears mask entries for dead nodes, returning how many were
// cleared.
func dropDead(mask, dead []bool) int {
	dropped := 0
	for v := range mask {
		if mask[v] && dead[v] {
			mask[v] = false
			dropped++
		}
	}
	return dropped
}

// phaseRunner owns the engine and transport wrappers shared by every phase
// of one DistMIS run. In the fault-free direct path both engine and wrappers
// persist across phases: the engine is Reset (re-seeding the per-node RNGs
// exactly as a fresh construction would) and the wrappers Rebind to the next
// phase's protocol. Under a fault plan the wrappers carry per-run ARQ state
// (sequence numbers, RTT estimates, give-ups) and are rebuilt each phase;
// only the engine is reused.
type phaseRunner struct {
	g       *graph.Graph
	states  []*nodeState
	topt    *transport.Options
	trace   sim.Tracer
	metrics *obs.Registry

	eng   *sim.SyncEngine
	wraps []*transport.Sync

	// Probe wiring (see Options.Probe): phaseName is set by competition and
	// color before each run; elapsed accumulates the rounds of completed
	// phases so probes report protocol-global time.
	probe      func(ProbePoint)
	probeEvery int64
	phaseName  string
	elapsed    int64

	// workers is Options.Workers, applied to the engine before every phase.
	workers int
}

func newPhaseRunner(g *graph.Graph, states []*nodeState, topt *transport.Options, trace sim.Tracer, metrics *obs.Registry) *phaseRunner {
	return &phaseRunner{
		g:       g,
		states:  states,
		topt:    topt,
		trace:   trace,
		metrics: metrics,
		wraps:   make([]*transport.Sync, g.N()),
	}
}

// run executes one phase to global completion over the protocols returned by
// protoFor, returning the phase's stats, transport accounting, and fault
// churn (crash-stopped and returned nodes).
func (pr *phaseRunner) run(seed int64, plan *sim.FaultPlan, markDown []int, protoFor func(id int) transport.SyncProto) (sim.Stats, transport.Totals, []int, []int, error) {
	factory := func(id int) sim.SyncNode {
		if pr.topt == nil && pr.wraps[id] != nil {
			pr.wraps[id].Rebind(protoFor(id))
		} else {
			pr.wraps[id] = transport.NewSync(protoFor(id), pr.topt)
		}
		pr.wraps[id].MarkDown(markDown...)
		return pr.wraps[id]
	}
	if pr.eng == nil {
		pr.eng = sim.NewSyncEngine(pr.g, seed, factory)
	} else {
		pr.eng.Reset(seed, factory)
	}
	pr.eng.Workers = pr.workers
	pr.eng.Trace = pr.trace
	pr.eng.Fault = plan
	pr.eng.Metrics = pr.metrics
	if plan != nil {
		pr.eng.MaxRounds = faultyMaxRounds(pr.g.N())
	}
	if pr.probe != nil {
		every := pr.probeEvery
		if every < 1 {
			every = 1
		}
		phase, base := pr.phaseName, pr.elapsed
		pr.eng.OnRound = func(round int64) {
			if round%every != 0 {
				return
			}
			pr.probe(ProbePoint{Phase: phase, Round: round, Elapsed: base, pr: pr})
		}
	}
	if err := pr.eng.Run(); err != nil {
		return sim.Stats{}, transport.Totals{}, nil, nil, err
	}
	pr.elapsed += pr.eng.Stats().Rounds
	return pr.eng.Stats(), transport.Collect(pr.wraps), pr.eng.Crashed(), pr.eng.Returned(), nil
}

// misPhaseNode adapts a Competition to one phase engine. Non-competing
// nodes relay floods only (competition distances are measured in the
// physical graph; see DESIGN.md on the general-variant safety argument).
// Env rounds are logical rounds: under a fault plan the transport stretches
// each one over as many physical rounds as retransmission needs.
type misPhaseNode struct {
	radius    int
	competing bool
	drawer    mis.Drawer
	comp      *mis.Competition
	inited    bool // comp re-armed for the current phase (first Step ran)
	st        *nodeState
}

// prepare re-arms the node for the next competition phase; the Competition
// itself is lazily (re)built on the first Step, which has the env RNG.
func (nd *misPhaseNode) prepare(radius int, competing bool, drawer mis.Drawer) *misPhaseNode {
	nd.radius = radius
	nd.competing = competing
	nd.drawer = drawer
	nd.inited = false
	return nd
}

func (nd *misPhaseNode) Step(env *transport.SyncEnv, inbox []sim.Message) bool {
	if !nd.inited {
		nd.inited = true
		var draw func(int) int64
		if nd.competing {
			draw = nd.drawer.New(env.ID, env.Rand)
		}
		if nd.comp == nil {
			nd.comp = mis.NewCompetition(env.ID, nd.radius, nd.competing, draw)
		} else {
			nd.comp.Reset(nd.radius, nd.competing, draw)
		}
	}
	for _, m := range inbox {
		if nd.st.rejoinStep(env, m) {
			if _, restarted := m.Payload.(sim.NodeRestarted); restarted {
				// A returned node abstains for the rest of this competition:
				// its round counter is behind the survivors' and a late win
				// would be vacuous. It keeps relaying, recompetes next phase.
				nd.comp.Reset(nd.radius, false, nil)
			}
			continue
		}
		switch p := m.Payload.(type) {
		case transport.PeerDown:
			// The dead peer's floods simply stop arriving; the competition
			// self-heals across iterations among the survivors.
		case *mis.Flood:
			if relay, ok := nd.comp.Observe(*p); ok {
				env.Broadcast(nd.st.floods.put(relay))
			}
		default:
			panic(fmt.Sprintf("core: unexpected payload %T in MIS phase", m.Payload))
		}
	}
	for _, f := range nd.comp.StartRound(env.Round) {
		env.Broadcast(nd.st.floods.put(f))
	}
	return nd.comp.Done()
}

// competition executes one MIS competition to global completion and returns
// each node's final status (non-competitors report Dominated) plus the
// phase's transport accounting and the nodes that crash-stopped during it.
func (pr *phaseRunner) competition(seed int64, radius int, competing []bool, drawer mis.Drawer, plan *sim.FaultPlan, markDown []int) ([]mis.Status, sim.Stats, transport.Totals, []int, []int, error) {
	if radius == 1 {
		pr.phaseName = "primary-mis"
	} else {
		pr.phaseName = "secondary-mis"
	}
	states := pr.states
	stats, tt, crashed, returned, err := pr.run(seed, plan, markDown, func(id int) transport.SyncProto {
		if states[id].misNode == nil {
			states[id].misNode = &misPhaseNode{st: states[id]}
		}
		return states[id].misNode.prepare(radius, competing[id], drawer)
	})
	if err != nil {
		return nil, sim.Stats{}, transport.Totals{}, nil, nil, err
	}
	statuses := make([]mis.Status, pr.g.N())
	for id, st := range states {
		// A node crashed for the entire phase never stepped: its machine was
		// never re-armed for this competition and it reports Dominated.
		if nd := st.misNode; nd.inited {
			statuses[id] = nd.comp.Status()
		} else {
			statuses[id] = mis.Dominated
		}
	}
	return statuses, stats, tt, crashed, returned, nil
}

// colorPhaseNode runs one coloring wave: secondary-MIS winners greedily
// color their arcs in round 0 and flood the announcements; everyone relays.
// Arcs to nodes already known dead are skipped — they are excluded from the
// schedule anyway, and coloring them would only waste slots and churn the
// survivors' knowledge.
type colorPhaseNode struct {
	g        *graph.Graph
	st       *nodeState
	colorNow bool
	variant  Variant
	dead     []bool // snapshot at phase start; nil in fault-free runs
}

func (nd *colorPhaseNode) Step(env *transport.SyncEnv, inbox []sim.Message) bool {
	for _, m := range inbox {
		if nd.st.rejoinStep(env, m) {
			if _, restarted := m.Payload.(sim.NodeRestarted); restarted {
				// A pending win must not color late with pre-crash knowledge:
				// the node's logical round 0 fires only after its restart, by
				// which point the resync replies have not arrived yet. The
				// driver sees the standard set unfinished and recompetes it.
				nd.colorNow = false
			}
			continue
		}
		switch m.Payload.(type) {
		case transport.PeerDown:
			// Nothing to do: the transport already excludes the peer.
		default:
			panic(fmt.Sprintf("core: unexpected payload %T in color phase", m.Payload))
		}
	}
	if env.Round == 0 && nd.colorNow {
		arcs := nd.g.IncidentArcsView(env.ID)
		if nd.variant == General {
			arcs = nd.g.OutArcsView(env.ID)
		}
		if nd.dead != nil {
			live := make([]graph.Arc, 0, len(arcs))
			for _, a := range arcs {
				if arcAlive(a, nd.dead) {
					live = append(live, a)
				}
			}
			arcs = live
		}
		newly := coloring.AssignGreedyLocal(nd.g, nd.st.know, arcs)
		nd.st.ownColored = append(nd.st.ownColored, newly...)
		for _, f := range nd.st.know.announceOwn(newly) {
			env.Broadcast(nd.st.anns.put(f))
		}
	}
	return true
}

// color executes one coloring wave over the selected secondary-MIS winners.
func (pr *phaseRunner) color(seed int64, selected []bool, variant Variant, dead []bool, plan *sim.FaultPlan, markDown []int) (sim.Stats, transport.Totals, []int, []int, error) {
	pr.phaseName = "coloring"
	var snapshot []bool
	if plan != nil {
		snapshot = append([]bool(nil), dead...)
	}
	states := pr.states
	return pr.run(seed, plan, markDown, func(id int) transport.SyncProto {
		nd := states[id].colorNode
		if nd == nil {
			nd = &colorPhaseNode{g: pr.g, st: states[id]}
			states[id].colorNode = nd
		}
		nd.colorNow = selected[id]
		nd.variant = variant
		nd.dead = snapshot
		return nd
	})
}

// faultyMaxRounds is the round budget for one phase engine under a fault
// plan: logical rounds stretch over physical ones, and every (peer, crashed
// peer) pair burns the full retry ladder (~127·RTO physical rounds) once
// before giving up.
func faultyMaxRounds(n int) int { return 200_000 + 2_000*n }

// assemble collects every node's self-colored arcs into one assignment and
// checks completeness over the surviving subgraph: arcs incident to a dead
// node are out of scope (their colors, if any were assigned before the
// crash, are discarded with the node). own returns node v's self-colored
// arcs and its color knowledge. Both algorithms build their schedule here.
func assemble(g *graph.Graph, dead []bool, own func(v int) ([]graph.Arc, *knowledge)) (coloring.Assignment, error) {
	// Size by what the survivors actually colored, not the full graph:
	// crash runs discard dead nodes' arcs.
	count := 0
	for v := 0; v < g.N(); v++ {
		arcs, _ := own(v)
		count += len(arcs)
	}
	as := coloring.NewAssignmentSized(count)
	for v := 0; v < g.N(); v++ {
		arcs, know := own(v)
		for _, a := range arcs {
			if !arcAlive(a, dead) {
				continue
			}
			c := know.Color(a)
			if c == coloring.None {
				return nil, fmt.Errorf("core: node %d lost color of own arc %v", v, a)
			}
			if prev, ok := as[a]; ok && prev != c {
				return nil, fmt.Errorf("core: arc %v colored twice (%d and %d)", a, prev, c)
			}
			as[a] = c
		}
	}
	for _, a := range g.Arcs() {
		if !arcAlive(a, dead) {
			continue
		}
		if as[a] == coloring.None {
			return nil, fmt.Errorf("core: arc %v left uncolored", a)
		}
	}
	return as, nil
}
