package fdlsp

import (
	"math/rand"
	"slices"

	"fdlsp/internal/broadcast"
	"fdlsp/internal/coloring"
	"fdlsp/internal/conformance"
	"fdlsp/internal/core"
	"fdlsp/internal/cv"
	"fdlsp/internal/dmgc"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/energy"
	"fdlsp/internal/geom"
	"fdlsp/internal/graph"
	"fdlsp/internal/incr"
	"fdlsp/internal/opt"
	"fdlsp/internal/sched"
	"fdlsp/internal/sim"
	"fdlsp/internal/traffic"
	"fdlsp/internal/viz"
	"fdlsp/internal/weighted"
)

// This file exposes the extension layers built on top of the paper's core:
// the randomized algorithm the paper reports attempting, fault-tolerant
// schedule maintenance (the paper's future work), the quasi-UDG network
// model, broadcast scheduling for the Section 1 comparison, and the SINR
// physical-model validation.

// Randomized runs the randomized synchronous algorithm (no MIS
// coordination; repeated feasible color gambles with priority conflict
// resolution). Per the paper's observation it tends to produce longer
// schedules than DistMIS at comparable speed — kept as an ablation.
func Randomized(g *Graph, seed int64) (*Result, error) { return core.Randomized(g, seed) }

// Dynamic schedule maintenance -------------------------------------------------

type (
	// TopologyEvent is one churn event (link up/down, node join/fail/move);
	// IncrementalUpdater.Apply takes batches of them.
	TopologyEvent = dynamic.Event
	// TopologyEventKind discriminates TopologyEvent.
	TopologyEventKind = dynamic.EventKind
)

// Topology event kinds.
const (
	EventLinkUp   = dynamic.LinkUp
	EventLinkDown = dynamic.LinkDown
	EventNodeFail = dynamic.NodeFail
	EventNodeJoin = dynamic.NodeJoin
	EventNodeMove = dynamic.NodeMove
)

// Incremental rescheduling service ---------------------------------------------

type (
	// IncrementalUpdater is a long-lived schedule that accepts batches of
	// topology deltas and answers each with the minimal recolor set plus the
	// repair-round count — the engine behind fdlspd's session API.
	IncrementalUpdater = incr.Updater
	// UpdateReport is the outcome of one applied batch.
	UpdateReport = incr.Report
	// ArcSlot is one arc→slot binding of a recolor delta.
	ArcSlot = incr.ArcSlot
)

// ErrBadDelta marks client-side validation failures of an update batch
// (errors.Is-matchable through IncrementalUpdater.Apply errors).
var ErrBadDelta = incr.ErrBadDelta

// NewIncremental wraps a valid schedule for batched incremental
// rescheduling; failed batches roll back atomically.
func NewIncremental(g *Graph, as Assignment) (*IncrementalUpdater, error) { return incr.New(g, as) }

// StabilizeSchedule repairs as from the given dirty set with the shared
// distributed-round local rule (≤|dirty| rounds; see DESIGN.md §11/§12),
// returning the round count and the worst usable-frame fraction observed
// while repair was in progress. The dirty map is consumed: every entry
// ends false once repair succeeds. Entries that are not arcs of g are
// ignored. The repair runs on the dense slot store; as is converted to it
// and the repaired slots of the dirty arcs are written back.
func StabilizeSchedule(g *Graph, as Assignment, dirty map[Arc]bool) (rounds int, minUsable float64, err error) {
	slots := coloring.SlotsOf(g, as)
	var arcs []Arc
	for a, d := range dirty {
		if _, ok := g.ArcIndex(a); d && ok {
			arcs = append(arcs, a)
		}
	}
	slices.SortFunc(arcs, graph.CompareArcs)
	ids := make([]int32, len(arcs))
	for i, a := range arcs {
		id, _ := g.ArcIndex(a)
		ids[i] = int32(id)
	}
	rounds, minUsable, err = coloring.Stabilize(g, slots, ids)
	for i, a := range arcs {
		if c := slots[ids[i]]; c == coloring.None {
			delete(as, a)
		} else {
			as[a] = int(c)
		}
	}
	if err == nil {
		for a := range dirty {
			dirty[a] = false
		}
	}
	return rounds, minUsable, err
}

// Quasi unit disk graphs and growth bounds -------------------------------------

// RandomQUDG places n sensors in a side×side plan and links them under the
// quasi unit disk model: certain within alpha·radius, never beyond radius,
// probability p in between.
func RandomQUDG(n int, side, radius, alpha, p float64, rng *rand.Rand) (*Graph, []Point) {
	return geom.RandomQUDG(n, side, radius, alpha, p, rng)
}

// QuasiUnitDisk builds the QUDG of an explicit placement.
func QuasiUnitDisk(pts []Point, radius, alpha, p float64, rng *rand.Rand) *Graph {
	return geom.QuasiUnitDisk(pts, radius, alpha, p, rng)
}

// GrowthBound empirically measures the growth-bounding function f(r) of a
// graph (the paper's network-model assumption): the largest independent set
// packed in any radius-r ball, for r = 1..maxR.
func GrowthBound(g *Graph, maxR int) []int { return geom.GrowthBound(g, maxR) }

// Broadcast scheduling ----------------------------------------------------------

// BroadcastGreedy computes a centralized distance-2 node coloring (TDMA
// broadcast schedule), the scheme the paper's introduction compares link
// scheduling against.
func BroadcastGreedy(g *Graph) []int { return broadcast.Greedy(g) }

// BroadcastDistributed computes the broadcast schedule distributedly with
// iterated radius-2 MIS competitions (drawer nil = Luby).
func BroadcastDistributed(g *Graph, seed int64, drawer MISDrawer) ([]int, Stats, error) {
	return broadcast.Distributed(g, seed, drawer)
}

// BroadcastVerify checks a broadcast schedule (distance-2 node coloring).
func BroadcastVerify(g *Graph, colors []int) bool {
	ok, _ := broadcast.Verify(g, colors)
	return ok
}

// BroadcastSlots returns a broadcast schedule's frame length.
func BroadcastSlots(colors []int) int { return broadcast.Slots(colors) }

// BroadcastLinkServiceSlots returns the slots broadcast scheduling needs to
// serve every directed link once (frame · Δ) — the apples-to-apples
// comparison with an FDLSP frame.
func BroadcastLinkServiceSlots(g *Graph, colors []int) int {
	return broadcast.LinkServiceSlots(g, colors)
}

// SINR physical model ------------------------------------------------------------

type (
	// SINRParams parameterizes the physical channel model.
	SINRParams = sched.SINRParams
	// SINRViolation is one failed reception under the physical model.
	SINRViolation = sched.SINRViolation
)

// DefaultSINRParams returns a conventional SINR parameterization (α=4).
func DefaultSINRParams() SINRParams { return sched.DefaultSINRParams() }

// Traffic simulation --------------------------------------------------------------

type (
	// Flow is a unicast traffic demand over the scheduled network.
	Flow = traffic.Flow
	// TrafficResult reports delivery, latency and queueing of a simulation.
	TrafficResult = traffic.Result
)

// SimulateTraffic routes the flows over shortest paths and forwards packets
// slot by slot, exactly when the TDMA frame schedules each next-hop link.
func SimulateTraffic(g *Graph, s *Schedule, flows []Flow, maxFrames int) (*TrafficResult, error) {
	return traffic.Simulate(g, s, flows, maxFrames)
}

// ConvergecastFlows is the canonical sensor-network demand: one packet from
// every node to the sink.
func ConvergecastFlows(g *Graph, sink int) []Flow { return traffic.ConvergecastFlows(g, sink) }

// NextHops returns shortest-path next hops toward dst (-1 when unreachable).
func NextHops(g *Graph, dst int) []int { return traffic.NextHops(g, dst) }

// Observability --------------------------------------------------------------------

type (
	// Tracer observes simulation events (rounds, sends, deliveries, node
	// terminations); set it on DistMISOptions.Trace or DFSOptions.Trace.
	Tracer = sim.Tracer
	// TraceRecorder is a bounded thread-safe Tracer with per-kind and
	// per-payload-type counters.
	TraceRecorder = sim.Recorder
	// TraceEvent is one recorded simulation event.
	TraceEvent = sim.Event
)

// Schedule post-optimization --------------------------------------------------------

// CompactSchedule recolors arcs downward until a fixpoint; the frame never
// gets longer and usually gets shorter. Feasibility is preserved.
func CompactSchedule(g *Graph, as Assignment) Assignment {
	out, _ := opt.Compact(g, as)
	return out
}

// ImproveSchedule runs the full offline post-optimization pipeline
// (compaction + iterated greedy over permuted color classes + compaction).
// Useful at a base station after a distributed algorithm produced the
// initial frame.
func ImproveSchedule(g *Graph, as Assignment, iters int, seed int64) Assignment {
	return opt.Improve(g, as, iters, seed)
}

// Visualization ---------------------------------------------------------------------

// VizStyle bundles SVG rendering options.
type VizStyle = viz.Style

// RenderNetwork renders the sensor field (nodes and links) as SVG.
func RenderNetwork(g *Graph, pts []Point, st VizStyle) string { return viz.Network(g, pts, st) }

// RenderSlot renders one TDMA slot: transmissions as arrows, transmitters
// and receivers color-coded.
func RenderSlot(g *Graph, pts []Point, s *Schedule, slot int, st VizStyle) (string, error) {
	return viz.Slot(g, pts, s, slot, st)
}

// RenderFrame renders the schedule as a strip of per-slot panels.
func RenderFrame(g *Graph, pts []Point, s *Schedule, maxSlots int, st VizStyle) (string, error) {
	return viz.Frame(g, pts, s, maxSlots, st)
}

// RenderSlotHistogram renders transmissions-per-slot as a bar chart.
func RenderSlotHistogram(s *Schedule) string { return viz.SlotHistogram(s) }

// Demand-aware (weighted) scheduling -----------------------------------------------

type (
	// LinkDemand maps directed links to per-frame slot demands.
	LinkDemand = weighted.Demand
	// WeightedAssignment maps each arc to its (sorted) slot set.
	WeightedAssignment = weighted.Assignment
	// WeightedViolation is one infeasibility found by VerifyWeighted.
	WeightedViolation = weighted.Violation
)

// UniformDemand gives every directed link the same demand.
func UniformDemand(w int) LinkDemand { return weighted.UniformDemand(w) }

// WeightedGreedy schedules heterogeneous link demands centrally: each arc
// receives its demand of smallest feasible slots.
func WeightedGreedy(g *Graph, d LinkDemand) (WeightedAssignment, error) {
	return weighted.Greedy(g, d)
}

// WeightedDFS schedules heterogeneous link demands with the token-passing
// discipline of Algorithm 2 generalized to multi-slot demands.
func WeightedDFS(g *Graph, d LinkDemand, seed int64) (WeightedAssignment, Stats, error) {
	return weighted.DFS(g, d, seed)
}

// VerifyWeighted checks a demand-aware schedule.
func VerifyWeighted(g *Graph, d LinkDemand, as WeightedAssignment) []WeightedViolation {
	return weighted.Verify(g, d, as)
}

// WeightedLowerBound returns the demand-aware frame-length lower bound.
func WeightedLowerBound(g *Graph, d LinkDemand) int { return weighted.LowerBound(g, d) }

// Energy accounting ----------------------------------------------------------------

type (
	// EnergyModel holds per-slot radio costs (transmit, receive, idle
	// listen, sleep).
	EnergyModel = energy.Model
	// EnergyReport is the per-frame energy accounting of one schedule.
	EnergyReport = energy.Report
)

// DefaultEnergyModel returns typical low-power-radio cost ratios.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// LinkEnergy accounts a full duplex link schedule: nodes sleep outside
// their own TX/RX slots.
func LinkEnergy(g *Graph, s *Schedule, m EnergyModel) EnergyReport {
	return energy.LinkSchedule(g, s, m)
}

// BroadcastEnergy accounts a broadcast schedule under unicast traffic:
// nodes idle-listen in every neighbor-owned slot (the paper's §1 power
// argument against broadcast scheduling).
func BroadcastEnergy(g *Graph, colors []int, m EnergyModel) (EnergyReport, error) {
	return energy.BroadcastSchedule(g, colors, m)
}

// PerLinkServiceEnergy compares the mean per-node energy to serve every
// directed link once under link versus broadcast scheduling.
func PerLinkServiceEnergy(g *Graph, s *Schedule, colors []int, m EnergyModel) (link, bcast float64, err error) {
	return energy.PerLinkServiceEnergy(g, s, colors, m)
}

// Deterministic symmetry breaking (Cole–Vishkin) -------------------------------------

// CVColorForest 3-colors a forest deterministically in O(log* n)
// synchronous rounds with Cole–Vishkin bit reduction — the technique behind
// the O(log* n) MIS algorithms the paper's round bounds cite.
func CVColorForest(g *Graph) ([]int, Stats, error) {
	root, err := cv.RootForest(g)
	if err != nil {
		return nil, Stats{}, err
	}
	return cv.ColorForest(g, root)
}

// CVForestMIS computes a deterministic MIS of a forest in O(log* n) rounds
// via the CV 3-coloring.
func CVForestMIS(g *Graph) ([]bool, Stats, error) { return cv.ForestMIS(g) }

// LogStar returns log₂*(n).
func LogStar(n float64) int { return cv.LogStar(n) }

// Conformance -----------------------------------------------------------------------

type (
	// Scheduler is any function producing a complete FDLSP assignment;
	// implementations can be validated with CheckConformance.
	Scheduler = conformance.Scheduler
	// ConformanceOptions tunes the validation battery.
	ConformanceOptions = conformance.Options
	// ConformanceFailure is one violated invariant.
	ConformanceFailure = conformance.Failure
)

// CheckConformance runs the full invariant battery (verifier, bounds
// sandwich, radio feasibility, per-seed determinism) against a scheduler
// over a spread of graph families. An empty result means conformant.
func CheckConformance(s Scheduler, opts ConformanceOptions) []ConformanceFailure {
	return conformance.Check(s, opts)
}

// Failure-injection delay presets for asynchronous runs ------------------------------

// NoDelay is the identity delay (one unit per hop).
func NoDelay() DelayFn { return sim.NoDelay() }

// UniformDelay adds 0..max extra units per message.
func UniformDelay(max int64) DelayFn { return sim.UniformDelay(max) }

// HeavyTailDelay is mostly fast with occasional large spikes.
func HeavyTailDelay(spike int64) DelayFn { return sim.HeavyTailDelay(spike) }

// SlowLinkDelay penalizes selected links by a fixed amount.
func SlowLinkDelay(penalty int64, slow func(u, v int) bool) DelayFn {
	return sim.SlowLinkDelay(penalty, slow)
}

// SlowNodeDelay penalizes every message sent by the given nodes.
func SlowNodeDelay(penalty int64, nodes ...int) DelayFn {
	return sim.SlowNodeDelay(penalty, nodes...)
}

// DMGCDistributed is the D-MGC variant whose phase 1 is a fully measured
// distributed (2Δ-1)-color randomized edge coloring instead of the Vizing
// Δ+1 construction — no fans, inversions or locks, O(log m) rounds w.h.p.,
// at the price of a longer frame (the ablation benchmarks quantify the
// gap, which is exactly why [8] pays for the Vizing phase).
func DMGCDistributed(g *Graph, seed int64) (*Result, error) {
	return dmgc.ScheduleDistributed(g, seed)
}

// ScheduleDiff returns, per affected node, the transmit/receive timetable
// changes between two schedules — the minimal set of sensors to re-flash
// after an incremental repair.
func ScheduleDiff(old, new Assignment) []NodeScheduleDelta { return dynamic.Diff(old, new) }

// NodeScheduleDelta is one node's timetable change set.
type NodeScheduleDelta = dynamic.NodeDelta

// DMGCVizingDistributed is D-MGC with the protocol-faithful distributed
// phase 1: Vizing fans, cd-path inversions walked by messages, and
// wound-wait locking — the machinery the paper describes for the baseline
// — with a measured asynchronous cost.
func DMGCVizingDistributed(g *Graph, seed int64) (*Result, error) {
	return dmgc.ScheduleVizingDistributed(g, seed)
}

// CompactWeightedSchedule compacts a demand-aware schedule: each arc's slot
// set is recolored to the smallest feasible set, never lengthening the
// frame.
func CompactWeightedSchedule(g *Graph, d LinkDemand, as WeightedAssignment) WeightedAssignment {
	out, _ := opt.CompactWeighted(g, d, as)
	return out
}
