package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"fdlsp/internal/coloring"
	"fdlsp/internal/core"
	"fdlsp/internal/geom"
	"fdlsp/internal/graph"
	"fdlsp/internal/sim"
)

// The one-shot workloads schedule a fixed instance set from scratch with
// both of the paper's protocols, as a CLI user does.
//
// oneshot-clean runs fault-free on one sparse instance, G(1024, 3n) — the
// *-n1024 rows of BENCH_sim.json — and one dense instance, G(200, 1200), the
// middle point of the paper's Fig. 11. Both graphs come from the workload
// seed. At seed 1 the sparse instance is BENCH_sim.json's seed-1 instance and
// must reproduce its cost columns.
//
// oneshot-lossy runs under seeded fault plans — loss 0.2 and one crash with
// restart — on dense unit-disk graphs (side 10, radius 4), DistMIS on 32
// nodes and DFS on 20: each run takes seconds and costs over 15x its
// fault-free time, so the transport cliff shows while a run still fits many
// passes. The geometry is fixed (geometry seed 1): lossy run time swings by
// 3x between random geometries of this size, so the workload seed drives the
// loss pattern and the protocols' randomness instead. A pass runs both
// protocols under lossyPlans fault plans derived from the seed, because one
// loss pattern alone moves the work (rounds) by over 10%. The crash always
// hits the graph's highest-degree node, because which node crashes moves run
// time by more than the loss pattern does.
const (
	sparseNodes, sparseEdges = 1024, 3 * 1024
	denseNodes, denseEdges   = 200, 1200
	denseSalt                = 1_000_003

	udgSide, udgRadius    = 10, 4
	udgGeometrySeed       = 1
	lossyDistMISNodes     = 32
	lossyDFSNodes         = 20
	lossyPlans            = 4
	lossRate              = 0.2
	crashAt, crashRestart = 20, 60
	setupRepeats          = 101
	referenceSeed         = 1
	algoDistMIS, algoDFS  = "distmis", "dfs"
)

// reference holds BENCH_sim.json's seed-1 cost columns of the sparse
// instance: slots, rounds, messages.
var reference = map[string][3]int64{
	algoDistMIS: {51, 2392, 4663077},
	algoDFS:     {40, 8912, 1361038},
}

// instance is one graph of the set, with the fault plan it runs under (nil
// for fault-free runs) and the protocols' seed.
type instance struct {
	name string
	g    *graph.Graph
	plan *sim.FaultPlan
	seed int64
}

// oneshotOp is one protocol run on one instance: the workload's unit
// operation.
type oneshotOp struct {
	inst *instance
	algo string
}

func (o oneshotOp) String() string { return o.algo + "/" + o.inst.name }

// oneshotSetup generates the workload's instance set from the seed.
func oneshotSetup(seed int64, lossy bool) []oneshotOp {
	if !lossy {
		sparse := &instance{name: "gnm-1024", g: graph.ConnectedGNM(sparseNodes, sparseEdges, rand.New(rand.NewSource(seed))), seed: seed}
		dense := &instance{name: "gnm-200", g: graph.ConnectedGNM(denseNodes, denseEdges, rand.New(rand.NewSource(seed+denseSalt))), seed: seed}
		return []oneshotOp{{sparse, algoDistMIS}, {sparse, algoDFS}, {dense, algoDistMIS}, {dense, algoDFS}}
	}
	udg := func(n int) *graph.Graph {
		g, _ := geom.RandomUDG(n, udgSide, udgRadius, rand.New(rand.NewSource(udgGeometrySeed)))
		return g
	}
	gm, gd := udg(lossyDistMISNodes), udg(lossyDFSNodes)
	var ops []oneshotOp
	for k := int64(0); k < lossyPlans; k++ {
		s := seed*denseSalt + k
		ops = append(ops,
			oneshotOp{lossyInstance(gm, s, k), algoDistMIS},
			oneshotOp{lossyInstance(gd, s, k), algoDFS})
	}
	return ops
}

// lossyInstance puts g under fault plan k: loss 0.2 seeded with s, and the
// highest-degree node down from round crashAt to crashRestart.
func lossyInstance(g *graph.Graph, s, k int64) *instance {
	node := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(node) {
			node = v
		}
	}
	plan := &sim.FaultPlan{Seed: s, Loss: lossRate, Crashes: []sim.Crash{{Node: node, At: crashAt, RestartAt: crashRestart}}}
	return &instance{name: fmt.Sprintf("udg-%d/plan%d", g.N(), k), g: g, plan: plan, seed: s}
}

// runOpts are the per-run knobs the traced run turns.
type runOpts struct {
	plan    *sim.FaultPlan
	trace   sim.Tracer
	probe   func(core.ProbePoint)
	workers int
}

// schedule runs the operation's protocol on g and times it.
func (o oneshotOp) schedule(g *graph.Graph, seed int64, ro runOpts) (*core.Result, clocks, error) {
	t0 := readClocks()
	var res *core.Result
	var err error
	switch o.algo {
	case algoDistMIS:
		res, err = core.DistMIS(g, core.Options{Seed: seed, Fault: ro.plan, Trace: ro.trace, Probe: ro.probe, Workers: ro.workers})
	case algoDFS:
		res, err = core.DFS(g, core.DFSOptions{Seed: seed, Fault: ro.plan, Trace: ro.trace})
	default:
		err = fmt.Errorf("unknown algorithm %q", o.algo)
	}
	return res, t0.since(), err
}

// verify checks a finished run: a complete conflict-free schedule on g when
// fault-free, on the surviving subgraph under faults; a frame length that
// matches the colors used; and transport counters that are zero exactly
// when the run bypassed the transport.
func verify(g *graph.Graph, plan *sim.FaultPlan, res *core.Result) error {
	target := g
	if plan != nil {
		target = core.SurvivingGraph(g, res.Crashed)
	}
	if v := coloring.Verify(target, res.Assignment); len(v) > 0 {
		return fmt.Errorf("%d conflicts, first %v", len(v), v[0])
	}
	if !res.Assignment.Complete(target) {
		return errors.New("schedule leaves arcs uncolored")
	}
	if res.Slots != res.Assignment.NumColors() {
		return fmt.Errorf("reported %d slots, schedule uses %d", res.Slots, res.Assignment.NumColors())
	}
	tt := res.Transport
	switch {
	case plan == nil && (tt.Segments != 0 || tt.Retries != 0 || tt.Acks != 0):
		return fmt.Errorf("fault-free run used the transport: %v", tt)
	case plan != nil && (tt.Segments == 0 || tt.Retries == 0):
		return fmt.Errorf("lossy run bypassed the transport: %v", tt)
	}
	return nil
}

// cost is a run's deterministic schedule cost.
type cost struct{ slots, rounds, messages int64 }

func costOf(res *core.Result) cost {
	return cost{int64(res.Slots), res.Stats.Rounds, res.Stats.Messages}
}

// pass is one sweep over the operation set.
type pass struct {
	durs     []time.Duration // scheduling wall time per operation
	cpus     []time.Duration // scheduling CPU time per operation
	costs    []cost
	results  []*core.Result
	total    time.Duration // sum of durs
	cpuTotal time.Duration // sum of cpus
	rt       goDelta
	layers   map[string]float64 // traced passes only
}

// oneshotPass runs every operation once on a fresh clone of its graph and an
// empty heap, so each run pays the topology-cache build and heap growth a
// CLI user pays, and verifies every schedule. A traced pass also attaches a
// counting tracer to DFS and a phase clock to DistMIS, records spans and
// sums the per-layer counts; an untraced pass runs exactly what a user runs.
func oneshotPass(cfg config, rep *report, ops []oneshotOp, traced bool) pass {
	var p pass
	var sp *spans
	if traced {
		sp = cfg.spans
		p.layers = map[string]float64{}
	}
	before := readGoStats()
	for _, o := range ops {
		op := sp.nextOp()
		root := sp.begin(op, -1, "oneshot."+o.algo)
		g := o.inst.g.Clone()
		// Start every run from an empty heap, as a CLI user's fresh process
		// does: the run's time and peak memory then do not depend on the
		// garbage the previous run left behind.
		debug.FreeOSMemory()
		ro := runOpts{plan: o.inst.plan}
		var ct *countTracer
		var pc *phaseClock
		if traced {
			if o.algo == algoDFS {
				ct = newCountTracer()
				ro.trace = ct
			} else {
				pc = &phaseClock{}
				ro.probe = pc.probe
			}
		}
		call := sp.begin(op, root, "core."+o.algo)
		pc.start(now())
		res, t, err := o.schedule(g, o.inst.seed, ro)
		sp.end(call)
		if err != nil {
			rep.op(false, "%s: %v", o, err)
			sp.end(root)
			p.durs = append(p.durs, t.wall)
			p.cpus = append(p.cpus, t.cpu)
			p.costs = append(p.costs, cost{})
			p.results = append(p.results, nil)
			continue
		}
		pc.finish(sp, op, call)
		vs := sp.begin(op, root, "coloring.Verify")
		v0 := now()
		verr := verify(g, o.inst.plan, res)
		vd := now() - v0
		sp.end(vs)
		sp.end(root)
		rep.op(verr == nil, "%s: %v", o, verr)
		p.durs = append(p.durs, t.wall)
		p.cpus = append(p.cpus, t.cpu)
		p.total += t.wall
		p.cpuTotal += t.cpu
		p.costs = append(p.costs, costOf(res))
		p.results = append(p.results, res)
		if traced {
			addLayers(p.layers, o, res, ct, pc, vd)
		}
	}
	p.rt = before.to(readGoStats())
	if traced {
		p.layers["transport.retry_ratio"] = ratio(p.layers["transport.retries"], p.layers["transport.segments"])
	}
	return p
}

// checkRepeat fails every operation whose cost differs from the first
// pass's: the protocols are deterministic per seed.
func checkRepeat(rep *report, ops []oneshotOp, first, p pass) {
	for i, o := range ops {
		if first.results[i] != nil && p.results[i] != nil && first.costs[i] != p.costs[i] {
			rep.fail("%s: cost %+v differs from the first pass's %+v", o, p.costs[i], first.costs[i])
		}
	}
}

// checkReference holds the sparse instance to BENCH_sim.json at seed 1.
func checkReference(cfg config, rep *report, ops []oneshotOp, p pass) {
	if cfg.seed != referenceSeed || cfg.workload != "oneshot-clean" {
		return
	}
	for i, o := range ops {
		want, ok := reference[o.algo]
		if !ok || o.inst.name != "gnm-1024" || p.results[i] == nil {
			continue
		}
		c := p.costs[i]
		if [3]int64{c.slots, c.rounds, c.messages} != want {
			rep.fail("%s: slots/rounds/messages %d/%d/%d, BENCH_sim.json has %d/%d/%d",
				o, c.slots, c.rounds, c.messages, want[0], want[1], want[2])
		}
	}
	rep.note("seed %d: sparse instance checked against BENCH_sim.json's cost columns", referenceSeed)
}

func runOneshot(cfg config, rep *report, lossy bool) error {
	var ops []oneshotOp
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := readClocks()
		ops = oneshotSetup(cfg.seed, lossy)
		setup = append(setup, seconds(t0.since().cpu))
	}
	if cfg.trace {
		return tracedOneshot(cfg, rep, ops, median(setup))
	}
	var passes []pass
	start := now()
	for len(passes) == 0 || now()-start < cfg.seconds {
		p := oneshotPass(cfg, rep, ops, false)
		if len(passes) == 0 {
			checkReference(cfg, rep, ops, p)
		} else {
			checkRepeat(rep, ops, passes[0], p)
		}
		passes = append(passes, p)
	}
	var totals []float64
	var cpus []time.Duration
	var measured time.Duration
	for _, p := range passes {
		totals = append(totals, seconds(p.cpuTotal))
		cpus = append(cpus, p.cpus...)
		measured += p.cpuTotal
	}
	var sum cost
	for _, c := range passes[0].costs {
		sum.slots += c.slots
		sum.rounds += c.rounds
		sum.messages += c.messages
	}
	ms := durMillis(cpus)
	rep.set("setup_s", median(setup))
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("frame_slots", float64(sum.slots))
	rep.set("messages", float64(sum.messages))
	rep.set("rounds", float64(sum.rounds))
	rep.set("pass_cpu_s", median(totals))
	rep.set("op_cpu_p50_ms", median(ms))
	rep.set("op_cpu_p99_ms", quantile(ms, 0.99))
	rep.set("ops_per_cpu_s", float64(len(cpus))/seconds(measured))
	for i, p := range passes {
		rep.note("  pass %d: wall %.3fs, CPU %.3fs", i, seconds(p.total), seconds(p.cpuTotal))
	}
	rep.note("%s seed %d: %d passes over %d protocol runs each (%d op samples)", cfg.workload, cfg.seed, len(passes), len(ops), len(cpus))
	for i, o := range ops {
		c := passes[0].costs[i]
		rep.note("  %-20s slots=%d rounds=%d messages=%d first-pass=%.3fs", o, c.slots, c.rounds, c.messages, seconds(passes[0].durs[i]))
	}
	return nil
}

// tracedOneshot is the per-layer run: it alternates an untraced pass with a
// traced one until the measured time is used (at least one pair), takes
// each layer metric's median over the pairs, and then runs the worker sweep
// and, on the lossy workload, the fault-free baseline of the same instances.
func tracedOneshot(cfg config, rep *report, ops []oneshotOp, setupS float64) error {
	zeroLayers(rep)
	var rows []map[string]float64
	var first pass
	start := now()
	for len(rows) == 0 || now()-start < cfg.seconds {
		plain := oneshotPass(cfg, rep, ops, false)
		traced := oneshotPass(cfg, rep, ops, true)
		if len(rows) == 0 {
			first = plain
			checkReference(cfg, rep, ops, plain)
		} else {
			checkRepeat(rep, ops, first, plain)
		}
		checkRepeat(rep, ops, first, traced)
		row := traced.layers
		var distmisT, dfsT, lossyT time.Duration
		for i, o := range ops {
			if o.algo == algoDistMIS {
				distmisT += plain.durs[i]
			} else {
				dfsT += plain.durs[i]
			}
			if o.inst.plan != nil {
				lossyT += plain.durs[i]
			}
		}
		row["core.distmis_s"] = seconds(distmisT)
		row["core.dfs_s"] = seconds(dfsT)
		row["sim.sync_ns_per_msg"] = ratio(float64(distmisT), row["sim.sync_msgs"])
		row["sim.async_ns_per_event"] = ratio(float64(dfsT), row["sim.async_events"])
		row["transport.ns_per_segment"] = ratio(float64(lossyT), row["transport.segments"])
		row["go.gc_cycles"] = plain.rt.gcCycles
		row["go.gc_pause_ms"] = plain.rt.pauseMs
		row["go.alloc_mb"] = plain.rt.allocMB
		row["bench.trace_overhead"] = ratio(float64(traced.total), float64(plain.total))
		row["bench.op_samples"] = float64(len(plain.durs))
		row["bench.wall_pass_s"] = seconds(plain.total)
		row["bench.wall_op_p50_ms"] = median(durMillis(plain.durs))
		row["bench.wall_op_p99_ms"] = quantile(durMillis(plain.durs), 0.99)
		rows = append(rows, row)
	}
	layers := medianRows(rows)
	layers["graph.gen_s"] = setupS
	workerSweep(cfg, rep, ops, layers)
	if ops[0].inst.plan != nil {
		faultOverhead(cfg, rep, ops, first, layers)
	}
	setLayers(rep, layers)
	rep.note("%s seed %d traced: %d untraced/traced pass pairs", cfg.workload, cfg.seed, len(rows))
	return nil
}

// workerSweep runs every DistMIS operation serially (Workers: 1) and at the
// default worker count. The results must be identical; the time ratio is
// the sync engine's parallel speedup.
func workerSweep(cfg config, rep *report, ops []oneshotOp, layers map[string]float64) {
	var serial, parallel time.Duration
	for _, o := range ops {
		if o.algo != algoDistMIS {
			continue
		}
		r1, t1, err1 := o.schedule(o.inst.g.Clone(), o.inst.seed, runOpts{plan: o.inst.plan, workers: 1})
		rn, tn, errn := o.schedule(o.inst.g.Clone(), o.inst.seed, runOpts{plan: o.inst.plan})
		rep.op(err1 == nil, "%s serial: %v", o, err1)
		rep.op(errn == nil, "%s parallel: %v", o, errn)
		if err1 != nil || errn != nil {
			continue
		}
		if !reflect.DeepEqual(r1, rn) {
			rep.fail("%s: Workers=1 and default workers produced different results", o)
		}
		serial += t1.wall
		parallel += tn.wall
	}
	layers["sim.sync_parallel_speedup"] = ratio(float64(serial), float64(parallel))
}

// faultOverhead runs the lossy instances fault-free and relates the lossy
// runs' messages and host time to it.
func faultOverhead(cfg config, rep *report, ops []oneshotOp, lossy pass, layers map[string]float64) {
	var cleanMsgs, lossyMsgs int64
	var cleanT, lossyT time.Duration
	for i, o := range ops {
		g := o.inst.g.Clone()
		res, t, err := o.schedule(g, o.inst.seed, runOpts{})
		if err == nil {
			err = verify(g, nil, res)
		}
		rep.op(err == nil, "%s fault-free: %v", o, err)
		if err != nil || lossy.results[i] == nil {
			continue
		}
		cleanMsgs += res.Stats.Messages
		cleanT += t.wall
		lossyMsgs += lossy.costs[i].messages
		lossyT += lossy.durs[i]
	}
	layers["transport.msg_overhead"] = ratio(float64(lossyMsgs), float64(cleanMsgs))
	layers["transport.time_overhead"] = ratio(float64(lossyT), float64(cleanT))
}

// medianRows takes each key's median over the rows.
func medianRows(rows []map[string]float64) map[string]float64 {
	cols := map[string][]float64{}
	for _, row := range rows {
		for k, v := range row {
			cols[k] = append(cols[k], v)
		}
	}
	out := make(map[string]float64, len(cols))
	for k, vs := range cols {
		out[k] = median(vs)
	}
	return out
}

// countTracer is the benchmark's own sim.Tracer: it counts sends,
// deliveries and sends per payload type. The engines emit from several
// goroutines, hence the mutex.
type countTracer struct {
	mu        sync.Mutex
	sends     int64
	delivers  int64
	byPayload map[string]int64
}

func newCountTracer() *countTracer { return &countTracer{byPayload: map[string]int64{}} }

func (t *countTracer) Emit(e sim.Event) {
	switch e.Kind {
	case sim.EventSend:
		t.mu.Lock()
		t.sends++
		t.byPayload[e.Payload]++
		t.mu.Unlock()
	case sim.EventDeliver:
		t.mu.Lock()
		t.delivers++
		t.mu.Unlock()
	}
}

// phaseClock attributes DistMIS wall time to protocol phases from the
// probe, which fires in the engine's sequential section after every round:
// the time since the previous probe belongs to the phase just probed. It
// also keeps contiguous same-phase stretches for the span list. A nil
// *phaseClock is inert.
type phaseClock struct {
	last     time.Duration
	perPhase map[string]time.Duration
	runs     []phaseRun
}

type phaseRun struct {
	phase      string
	start, end time.Duration
}

func (c *phaseClock) start(t time.Duration) {
	if c == nil {
		return
	}
	c.last = t
	c.perPhase = map[string]time.Duration{}
}

func (c *phaseClock) probe(p core.ProbePoint) {
	t := now()
	c.perPhase[p.Phase] += t - c.last
	if n := len(c.runs); n > 0 && c.runs[n-1].phase == p.Phase {
		c.runs[n-1].end = t
	} else {
		c.runs = append(c.runs, phaseRun{phase: p.Phase, start: c.last, end: t})
	}
	c.last = t
}

// finish records the phase stretches as children of the protocol span.
func (c *phaseClock) finish(sp *spans, op int64, parent int) {
	if c == nil {
		return
	}
	for _, r := range c.runs {
		sp.add(op, parent, "core.phase."+r.phase, r.start, r.end)
	}
}

// dfsPayloads are the DFS message types reported one by one; transport
// frames and anything else are folded into two buckets.
var dfsPayloads = []string{"tokenMsg", "bounceMsg", "askMsg", "replyMsg", "annMsg", "ackMsg"}

// addLayers adds one traced run's per-layer counts and phase times to m.
func addLayers(m map[string]float64, o oneshotOp, res *core.Result, ct *countTracer, pc *phaseClock, verifyT time.Duration) {
	m["sim.dropped_fault"] += float64(res.Stats.DroppedFault)
	m["sim.duplicated"] += float64(res.Stats.Duplicated)
	m["sim.dropped_dead"] += float64(res.Stats.DroppedDead)
	m["core.rejoin_msgs"] += float64(res.Rejoin.ResyncMsgs)
	m["coloring.verify_ms"] += millis(verifyT)
	tt := res.Transport
	m["transport.segments"] += float64(tt.Segments)
	m["transport.retries"] += float64(tt.Retries)
	m["transport.gave_up"] += float64(tt.GaveUp)
	m["transport.acks"] += float64(tt.Acks)
	m["transport.vouched"] += float64(tt.Vouched)
	m["transport.peers_down"] += float64(tt.PeersDown)
	if v := float64(tt.MaxInFlight); v > m["transport.max_inflight"] {
		m["transport.max_inflight"] = v
	}
	switch o.algo {
	case algoDistMIS:
		m["sim.sync_msgs"] += float64(res.Stats.Messages)
		m["core.outer_iters"] += float64(res.OuterIters)
		m["core.inner_iters"] += float64(res.InnerIters)
		for _, phase := range []string{"primary-mis", "secondary-mis", "coloring"} {
			m["core.msgs."+phase] += float64(res.Breakdown[phase].Messages)
		}
		m["core.primary_mis_s"] += seconds(pc.perPhase["primary-mis"])
		m["core.secondary_mis_s"] += seconds(pc.perPhase["secondary-mis"])
		m["core.coloring_s"] += seconds(pc.perPhase["coloring"])
	case algoDFS:
		ct.mu.Lock()
		defer ct.mu.Unlock()
		m["sim.async_events"] += float64(ct.sends + ct.delivers)
		named := map[string]bool{}
		for _, p := range dfsPayloads {
			named["core."+p] = true
			m["core.dfs.msgs."+p] += float64(ct.byPayload["core."+p])
		}
		for p, n := range ct.byPayload {
			switch {
			case named[p]:
			case strings.HasPrefix(p, "transport."):
				m["core.dfs.msgs.transport"] += float64(n)
			default:
				m["core.dfs.msgs.other"] += float64(n)
			}
		}
	}
}
