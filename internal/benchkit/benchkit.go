// Package benchkit is the repository's benchmark baseline harness: it
// measures the end-to-end scheduling latency, allocation profile and
// communication cost of the two scheduling engines — plus the per-update
// cost of the incremental rescheduling session — on fixed seeded instances
// and renders the result as JSON. cmd/fdlsbench writes the committed
// BENCH_sim.json baseline with it; CI runs the short suite as a smoke check
// and gates allocation regressions with Compare. The cost metrics (slots,
// rounds, messages) are the deterministic per-seed values; the timing and
// allocation figures are averaged over at least MinIterations runs and
// MinBenchNs of wall clock, both recorded in the report so a reader can
// judge how trustworthy the averages are.
package benchkit

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fdlsp/internal/coloring"
	"fdlsp/internal/core"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
	"fdlsp/internal/incr"
	"fdlsp/internal/sim"
)

// Iteration floors for every measurement. testing.Benchmark-style
// auto-scaling can settle on a single iteration for slow specs, which makes
// the allocation columns hostage to one run's GC and scheduler noise; the
// harness instead always runs at least MinIterations iterations AND at
// least MinBenchNs of wall clock, whichever takes longer.
const (
	MinIterations = 3
	MinBenchNs    = int64(200 * time.Millisecond)
)

// Spec is one benchmark point: an engine ("sync" runs DistMIS on the
// lock-step engine, "async" runs DFS on the discrete-event engine, "incr"
// applies a fixed single-link update batch to a live rescheduling session)
// on a seeded connected G(n,m) instance with m = 3n. Fault runs the sync or
// async point over the reliable transport under faultPlan.
type Spec struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	Seed   int64  `json:"seed"`
	Fault  bool   `json:"fault,omitempty"`
}

// Fault-row plan: every link loses faultLoss of its messages, and the
// highest-degree node (lowest id on ties) is down from faultDownAt to
// faultUpAt, so the rows cover the ARQ, give-up and rejoin paths.
const (
	faultLoss   = 0.2
	faultDownAt = 20
	faultUpAt   = 60
)

// faultPlan returns the fault rows' plan on g, seeded with the spec seed.
func faultPlan(g *graph.Graph, seed int64) *sim.FaultPlan {
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return &sim.FaultPlan{Seed: seed, Loss: faultLoss,
		Crashes: []sim.Crash{{Node: hub, At: faultDownAt, RestartAt: faultUpAt}}}
}

// Measurement is one spec's outcome: wall-clock and allocation figures
// averaged over the measured iterations plus the run's deterministic
// schedule cost.
type Measurement struct {
	Spec
	Iterations  int   `json:"iterations"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	Slots       int   `json:"slots"`
	Rounds      int64 `json:"rounds"`
	Messages    int64 `json:"messages"`
}

// Report is the full baseline document serialized to BENCH_sim.json.
type Report struct {
	// Suite distinguishes the committed full baseline from CI smoke runs.
	Suite      string `json:"suite"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// MinIterations and MinBenchNs record the iteration floors the harness
	// enforced when the report was generated.
	MinIterations int           `json:"min_iterations"`
	MinBenchNs    int64         `json:"min_bench_ns"`
	Results       []Measurement `json:"results"`
}

// DefaultSpecs returns the baseline grid: both scheduling engines at
// n ∈ {64, 256, 1024, 4096}, with the parallel sync engine additionally
// measured at n ∈ {16384, 65536} — the scale the sharded round loop exists
// for — and the incremental session engine at n ∈ {256, 1024, 4096}, where
// the per-update cost columns must hold flat across the scale sweep (the
// point of the patched conflict cache). Short grids are small enough for a
// CI smoke run: {16, 64} for the scheduling engines, {64, 256} for incr.
func DefaultSpecs(short bool) []Spec {
	sizes := []int{64, 256, 1024, 4096}
	if short {
		sizes = []int{16, 64}
	}
	var specs []Spec
	for _, engine := range []string{"sync", "async", "incr"} {
		esizes := sizes
		switch {
		case engine == "sync" && !short:
			esizes = append(append([]int{}, sizes...), 16384, 65536)
		case engine == "incr" && !short:
			esizes = []int{256, 1024, 4096}
		case engine == "incr":
			esizes = []int{64, 256}
		}
		for _, n := range esizes {
			specs = append(specs, Spec{
				Name:   fmt.Sprintf("%s-n%d", engine, n),
				Engine: engine,
				Nodes:  n,
				Edges:  3 * n,
				Seed:   1,
			})
		}
	}
	fsizes := []int{64, 256}
	if short {
		fsizes = []int{64}
	}
	for _, engine := range []string{"sync", "async"} {
		for _, n := range fsizes {
			specs = append(specs, Spec{
				Name:   fmt.Sprintf("%s-fault-n%d", engine, n),
				Engine: engine,
				Nodes:  n,
				Edges:  3 * n,
				Seed:   1,
				Fault:  true,
			})
		}
	}
	return specs
}

// Run measures every spec and assembles the report. The instance and the
// schedule cost are deterministic per spec seed; only the timing and
// allocation figures vary between machines.
func Run(suite string, specs []Spec) (*Report, error) {
	rep := &Report{
		Suite:         suite,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		MinIterations: MinIterations,
		MinBenchNs:    MinBenchNs,
	}
	for _, spec := range specs {
		m, err := measure(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		rep.Results = append(rep.Results, m)
	}
	return rep, nil
}

// measure times one spec and records its deterministic schedule cost. One
// untimed warm-up run provides the cost columns and pre-faults the graph's
// topology cache, then the timed loop runs until both iteration floors are
// met. Allocation figures come from runtime.MemStats deltas around the
// whole loop (Mallocs/TotalAlloc are monotonic, so no GC fencing is
// needed), divided by the iteration count.
func measure(spec Spec) (Measurement, error) {
	if spec.Engine == "incr" {
		return measureIncr(spec)
	}
	g := graph.ConnectedGNM(spec.Nodes, spec.Edges, rand.New(rand.NewSource(spec.Seed)))
	var plan *sim.FaultPlan
	if spec.Fault {
		plan = faultPlan(g, spec.Seed)
	}
	run := func() (*core.Result, error) {
		switch spec.Engine {
		case "sync":
			return core.DistMIS(g, core.Options{Seed: spec.Seed, Fault: plan})
		case "async":
			return core.DFS(g, core.DFSOptions{Seed: spec.Seed, Fault: plan})
		default:
			return nil, fmt.Errorf("unknown engine %q (want sync, async or incr)", spec.Engine)
		}
	}
	res, err := run()
	if err != nil {
		return Measurement{}, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// The harness measures wall clock around whole runs; no timing leaks
	// into the protocols, whose cost columns stay deterministic.
	start := time.Now() //lint:ignore detrand benchmark harness wall-clock measurement, outside protocol code
	iters := 0
	//lint:ignore detrand benchmark harness wall-clock measurement, outside protocol code
	for iters < MinIterations || time.Since(start).Nanoseconds() < MinBenchNs {
		if _, err := run(); err != nil {
			return Measurement{}, err
		}
		iters++
	}
	elapsed := time.Since(start).Nanoseconds() //lint:ignore detrand benchmark harness wall-clock measurement, outside protocol code
	runtime.ReadMemStats(&after)

	return Measurement{
		Spec:        spec,
		Iterations:  iters,
		NsPerOp:     elapsed / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		Slots:       res.Slots,
		Rounds:      res.Stats.Rounds,
		Messages:    res.Stats.Messages,
	}, nil
}

// measureIncr times the incremental rescheduling path: one live session over
// the seeded instance, with each operation applying a drop-and-readd batch
// of the instance's first edge. The warm-up batch pays the initial
// conflict-cache build and provides the deterministic cost columns — Slots
// is the frame after repair, Rounds the repair rounds, and Messages the
// conflict rows dropped by the cache patch, which is the locality
// contract: it is bounded by the flipped edge's 2-hop neighborhood and must
// not scale with the instance's total arc count. Compare gates on it like
// any other cost column, so a patch path that regresses to whole-graph
// drops drifts the baseline and fails CI.
func measureIncr(spec Spec) (Measurement, error) {
	g := graph.ConnectedGNM(spec.Nodes, spec.Edges, rand.New(rand.NewSource(spec.Seed)))
	up, err := incr.New(g, coloring.Greedy(g, nil))
	if err != nil {
		return Measurement{}, err
	}
	e := g.Edges()[0]
	batch := []dynamic.Event{
		{Kind: dynamic.LinkDown, U: e.U, V: e.V},
		{Kind: dynamic.LinkUp, U: e.U, V: e.V},
	}
	rep, err := up.Apply(batch)
	if err != nil {
		return Measurement{}, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //lint:ignore detrand benchmark harness wall-clock measurement, outside protocol code
	iters := 0
	//lint:ignore detrand benchmark harness wall-clock measurement, outside protocol code
	for iters < MinIterations || time.Since(start).Nanoseconds() < MinBenchNs {
		if _, err := up.Apply(batch); err != nil {
			return Measurement{}, err
		}
		iters++
	}
	elapsed := time.Since(start).Nanoseconds() //lint:ignore detrand benchmark harness wall-clock measurement, outside protocol code
	runtime.ReadMemStats(&after)

	return Measurement{
		Spec:        spec,
		Iterations:  iters,
		NsPerOp:     elapsed / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		Slots:       rep.FrameLength,
		Rounds:      int64(rep.Rounds),
		Messages:    int64(rep.CachePatchedArcs),
	}, nil
}

// JSON renders the report with stable two-space indentation (the committed
// baseline diffs cleanly).
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Load parses a report previously written with JSON.
func Load(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchkit: parsing report: %w", err)
	}
	return &r, nil
}

// Wall-clock gate thresholds. ns_per_op is machine-dependent, so small
// specs only ever report it as advisory; at n >= WallClockMinNodes a run is
// long enough to average out scheduler and GC noise, and growth beyond
// WallClockMaxGrowth (a generous +200%) is treated as a real performance
// regression and turns fatal. The bar is deliberately loose: it exists to
// catch order-of-magnitude losses (an accidentally serialized engine, a
// quadratic delivery path), not machine-to-machine variance.
const (
	WallClockMinNodes  = 4096
	WallClockMaxGrowth = 2.0
)

// Comparison is the outcome of holding a fresh report against a baseline.
// Fatal findings are meant to fail CI: allocation-count or byte regressions
// beyond the tolerance, any drift in the deterministic cost columns
// (slots, rounds, messages must reproduce exactly per seed), and wall-clock
// growth beyond WallClockMaxGrowth on specs of WallClockMinNodes nodes or
// more. Advisory findings report the remaining wall-clock movement, which
// is machine-dependent and never fails the gate.
type Comparison struct {
	Fatal    []string
	Advisory []string
}

// Compare holds cur against base spec-by-spec (matched by name; specs
// present in only one report are skipped, so a short smoke run can be held
// against the committed full baseline). maxGrowth is the tolerated
// fractional growth in allocs_per_op and bytes_per_op — 0.25 means fail
// beyond +25%.
func Compare(base, cur *Report, maxGrowth float64) Comparison {
	baseline := make(map[string]Measurement, len(base.Results))
	for _, m := range base.Results {
		baseline[m.Name] = m
	}
	var c Comparison
	for _, m := range cur.Results {
		b, ok := baseline[m.Name]
		if !ok {
			continue
		}
		if m.Slots != b.Slots || m.Rounds != b.Rounds || m.Messages != b.Messages {
			c.Fatal = append(c.Fatal, fmt.Sprintf(
				"%s: deterministic cost drifted: slots/rounds/messages %d/%d/%d, baseline %d/%d/%d",
				m.Name, m.Slots, m.Rounds, m.Messages, b.Slots, b.Rounds, b.Messages))
		}
		c.check(&c.Fatal, m.Name, "allocs_per_op", b.AllocsPerOp, m.AllocsPerOp, maxGrowth)
		c.check(&c.Fatal, m.Name, "bytes_per_op", b.BytesPerOp, m.BytesPerOp, maxGrowth)
		c.check(&c.Advisory, m.Name, "ns_per_op", b.NsPerOp, m.NsPerOp, maxGrowth)
		if m.Nodes >= WallClockMinNodes {
			c.check(&c.Fatal, m.Name, "ns_per_op (wall-clock gate)", b.NsPerOp, m.NsPerOp, WallClockMaxGrowth)
		}
	}
	return c
}

func (c *Comparison) check(sink *[]string, name, metric string, base, cur int64, maxGrowth float64) {
	if base <= 0 {
		return
	}
	limit := float64(base) * (1 + maxGrowth)
	if float64(cur) > limit {
		*sink = append(*sink, fmt.Sprintf("%s: %s regressed %.1f%%: %d, baseline %d (limit +%.0f%%)",
			name, metric, 100*(float64(cur)/float64(base)-1), cur, base, 100*maxGrowth))
	}
}
