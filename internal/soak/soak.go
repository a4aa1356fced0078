// Package soak is the self-stabilizing continuous-operation driver: where
// the rest of the repository runs terminating experiments — a protocol run
// ends, a fault plan is exhausted, a verifier inspects the corpse — the soak
// keeps a TDMA schedule alive under an unbounded stream of perturbations and
// measures stabilization while it happens. Per Herman & Tixeuil's survey of
// self-stabilizing TDMA (PAPERS.md, arXiv:cs/0405042) the property of
// interest is convergence from any state under perpetual churn: sensors
// crash and restart, leave and rejoin, walk across the plan (quasi unit disk
// connectivity re-derived from positions each epoch), and the schedule may
// even start from an adversarial coloring (all arcs uncolored, or all arcs
// jammed into slot 1).
//
// Each epoch the soak draws a deterministic batch of perturbations and
// hands the resulting topology delta to the live schedule's incr.Updater —
// the repository's one maintenance path — as a batch of link events. The
// updater repairs the schedule with the distributed-round local rule of
// coloring.Stabilize, whose round count is the epoch's convergence time,
// and reports the worst usable fraction of the TDMA frame — transmissions
// whose slot actually fires — seen while repair ran. The soak re-verifies
// the whole schedule every epoch and publishes everything through
// fdlsp_soak_* metric families. Periodically it hands the live topology
// back to the full DistMIS protocol under a lossy, crash-laden engine run
// (sim.FaultStream materializes the window) and adopts the fresh schedule,
// probing the protocol's own repair progress mid-run via core's ProbePoint
// hook.
//
// Every draw is a pure function of (Seed, epoch, node) — the same
// splitmix64 scheme as sim.FaultStream and geom.Mobility — and every
// consumer of randomness is either sequential or already GOMAXPROCS
// invariant (the sim engines), so a fixed seed reproduces an unbounded soak
// byte-for-byte at any parallelism.
package soak

import (
	"fmt"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/geom"
	"fdlsp/internal/graph"
	"fdlsp/internal/incr"
	"fdlsp/internal/obs"
	"fdlsp/internal/sim"
)

// InitMode selects the initial coloring the soak starts from.
type InitMode string

const (
	// InitGreedy starts from a valid greedy schedule (steady-state entry).
	InitGreedy InitMode = "greedy"
	// InitZero starts with every arc uncolored — the all-zero adversarial
	// state: no transmission has a slot until the stabilizer assigns one.
	InitZero InitMode = "zero"
	// InitConflict starts with every arc in slot 1 — the maximally
	// conflicting adversarial state: every pair of conflicting arcs clashes.
	InitConflict InitMode = "conflict"
)

// Config parameterizes a soak. The zero value of most fields picks a
// sensible default (see New); rates are probabilities in [0,1].
type Config struct {
	// Seed drives every draw of the soak: churn, mobility, engine probes.
	Seed int64
	// N is the number of sensors; Side the plan's side length; Radius the
	// transmission radius. Alpha and GrayP are the QUDG parameters (gray-zone
	// coins are frozen across epochs so link churn comes from movement).
	N      int
	Side   float64
	Radius float64
	Alpha  float64
	GrayP  float64
	// Step and MoveRate parameterize the reflecting random walk: each epoch
	// a node moves with probability MoveRate by at most Step per axis.
	Step     float64
	MoveRate float64
	// CrashRate is the per-node per-epoch probability of starting an outage
	// of MinOutage..MaxOutage epochs (a crashed sensor loses its links; its
	// arcs leave the schedule until it restarts).
	CrashRate            float64
	MinOutage, MaxOutage int64
	// LeaveRate is the per-node per-epoch probability of an orderly
	// departure of MinAway..MaxAway epochs — operationally identical to an
	// outage but accounted as leave/join churn.
	LeaveRate        float64
	MinAway, MaxAway int64
	// Init is the initial coloring mode (default InitGreedy).
	Init InitMode
	// Loss is the message-loss probability of engine probe runs, and
	// ProbeEvery their period in epochs (0 disables them). Each probe run
	// subjects the live topology to a full DistMIS execution over the
	// reliable transport with loss and a sim.FaultStream crash window, then
	// adopts the resulting schedule — the soak's periodic protocol-level
	// reschedule.
	Loss       float64
	ProbeEvery int64
	// ProbeHorizon bounds the crash windows of probe runs in virtual-time
	// units (default 200).
	ProbeHorizon int64
	// Metrics optionally receives the fdlsp_soak_* families.
	Metrics *obs.Registry
}

// EpochReport is the outcome of one churn epoch.
type EpochReport struct {
	Epoch int64
	// Churn applied this epoch.
	Crashes, Restarts  int
	Leaves, Joins      int
	Moves              int
	LinksUp, LinksDown int
	// DirtyArcs is the size of the repair's initial dirty set;
	// ConvergenceRounds the distributed rounds the stabilizer needed.
	DirtyArcs         int
	ConvergenceRounds int
	// MinUsable is the worst usable-frame fraction observed during repair;
	// Usable the fraction after repair (1 unless the epoch failed).
	MinUsable float64
	Usable    float64
	// Residual is the conflict count after repair (always 0 on success).
	Residual int
	// Live and Slots describe the network after the epoch.
	Live  int
	Slots int
	// EngineProbe is set on epochs that ran a protocol-level reschedule.
	EngineProbe *ProbeReport
}

// Summary aggregates a bounded soak run.
type Summary struct {
	Epochs             int64
	TotalPerturbations int64
	MaxConvergence     int
	SumConvergence     int64
	MinUsable          float64
	EngineProbes       int
	FinalSlots         int
	FinalLive          int
}

// Perturbations returns the total churn the epoch applied.
func (r EpochReport) Perturbations() int {
	return r.Crashes + r.Restarts + r.Leaves + r.Joins + r.Moves + r.LinksUp + r.LinksDown
}

// Add folds one epoch's report into the summary. Start from
// Summary{MinUsable: 1}.
func (s *Summary) Add(rep EpochReport) {
	s.Epochs++
	s.TotalPerturbations += int64(rep.Perturbations())
	if rep.ConvergenceRounds > s.MaxConvergence {
		s.MaxConvergence = rep.ConvergenceRounds
	}
	s.SumConvergence += int64(rep.ConvergenceRounds)
	if rep.MinUsable < s.MinUsable {
		s.MinUsable = rep.MinUsable
	}
	if rep.EngineProbe != nil {
		s.EngineProbes++
	}
	s.FinalSlots = rep.Slots
	s.FinalLive = rep.Live
}

// MeanConvergence returns the average convergence time per epoch.
func (s Summary) MeanConvergence() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.SumConvergence) / float64(s.Epochs)
}

// Soak is a running churn soak. Not safe for concurrent use; drive it from
// one goroutine (it spawns none of its own — engine probes join theirs
// before returning).
type Soak struct {
	cfg Config
	mob *geom.Mobility

	pts   []geom.Point
	up    *incr.Updater // live-node links and their schedule
	down  []int64       // node is crashed until this epoch
	away  []int64       // node has left until this epoch
	epoch int64

	stream *sim.FaultStream
	m      *metrics
}

// New builds a soak from the config and establishes the initial schedule.
func New(cfg Config) (*Soak, error) {
	if cfg.N <= 0 {
		cfg.N = 48
	}
	if cfg.Side == 0 {
		cfg.Side = 12
	}
	if cfg.Radius == 0 {
		cfg.Radius = 2.5
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.75
	}
	if cfg.Step == 0 {
		cfg.Step = 0.3
	}
	if cfg.Init == "" {
		cfg.Init = InitGreedy
	}
	if cfg.MinOutage == 0 {
		cfg.MinOutage = 1
	}
	if cfg.MaxOutage < cfg.MinOutage {
		cfg.MaxOutage = cfg.MinOutage + 3
	}
	if cfg.MinAway == 0 {
		cfg.MinAway = 2
	}
	if cfg.MaxAway < cfg.MinAway {
		cfg.MaxAway = cfg.MinAway + 6
	}
	if cfg.ProbeHorizon == 0 {
		cfg.ProbeHorizon = 200
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"move rate", cfg.MoveRate}, {"crash rate", cfg.CrashRate},
		{"leave rate", cfg.LeaveRate}, {"gray-p", cfg.GrayP}} {
		if r.v < 0 || r.v > 1 {
			return nil, fmt.Errorf("soak: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if cfg.Loss < 0 || cfg.Loss >= 1 {
		return nil, fmt.Errorf("soak: loss %v outside [0,1)", cfg.Loss)
	}
	switch cfg.Init {
	case InitGreedy, InitZero, InitConflict:
	default:
		return nil, fmt.Errorf("soak: unknown init mode %q", cfg.Init)
	}

	s := &Soak{
		cfg: cfg,
		mob: &geom.Mobility{
			Seed: cfg.Seed ^ 0x715EA5ED, Side: cfg.Side, Step: cfg.Step,
			MoveRate: cfg.MoveRate, Radius: cfg.Radius, Alpha: cfg.Alpha,
			GrayP: cfg.GrayP,
		},
		down: make([]int64, cfg.N),
		away: make([]int64, cfg.N),
		stream: &sim.FaultStream{
			Seed: cfg.Seed ^ 0x57AB1E, Loss: cfg.Loss,
			CrashRate: cfg.CrashRate, MinOutage: 4, MaxOutage: 40,
		},
		m: newMetrics(cfg.Metrics),
	}
	// Deterministic placement: hash draws, same scheme as the walk itself.
	s.pts = make([]geom.Point, cfg.N)
	for v := range s.pts {
		s.pts[v] = geom.Point{
			X: s.hash01(-1, v, 0) * cfg.Side,
			Y: s.hash01(-1, v, 1) * cfg.Side,
		}
	}
	g := s.mob.GraphAt(s.pts, 0)

	// An adversarial start heals in epoch 0: the updater's first batch
	// dirties every arc.
	switch cfg.Init {
	case InitGreedy:
		up, err := incr.New(g, coloring.Greedy(g, nil))
		if err != nil {
			return nil, err
		}
		s.up = up
	case InitZero:
		s.up = incr.NewHealing(g, coloring.NewAssignment(g))
	case InitConflict:
		as := coloring.NewAssignment(g)
		for _, a := range g.ArcsView() {
			as[a] = 1
		}
		s.up = incr.NewHealing(g, as)
	}
	return s, nil
}

// Graph returns the current live topology (read-only by convention).
func (s *Soak) Graph() *graph.Graph { return s.up.Graph() }

// Assignment returns the current schedule (read-only by convention).
func (s *Soak) Assignment() coloring.Assignment { return s.up.Assignment() }

// Epoch returns the number of epochs completed so far.
func (s *Soak) Epoch() int64 { return s.epoch }

// hash01 returns a uniform [0,1) draw for (epoch, node, dim).
func (s *Soak) hash01(epoch int64, node, dim int) float64 {
	x := splitmix64(uint64(s.cfg.Seed) ^ splitmix64(uint64(epoch)*0x9E3779B97F4A7C15^uint64(node)<<20^uint64(dim)^0x50AC))
	return float64(x>>11) / (1 << 53)
}

// hashInt returns a uniform draw in [0, n).
func (s *Soak) hashInt(epoch int64, node, dim int, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(s.hash01(epoch, node, dim) * float64(n))
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// live reports whether node v participates in the network at epoch e.
func (s *Soak) live(v int, e int64) bool {
	return s.down[v] <= e && s.away[v] <= e
}

// Step runs one churn epoch: draw perturbations, apply the topology delta,
// stabilize the schedule, and (periodically) reschedule via a full engine
// run. The returned report is a pure function of (Config, epoch index).
func (s *Soak) Step() (EpochReport, error) {
	e := s.epoch
	rep := EpochReport{Epoch: e, MinUsable: 1, Usable: 1}

	// 1. Lifecycle churn: restarts/joins happen when a timer expires; new
	// outages and departures are drawn among currently-live nodes.
	for v := 0; v < s.cfg.N; v++ {
		wasLive := e == 0 || s.live(v, e-1)
		if s.down[v] == e && s.down[v] > 0 {
			rep.Restarts++
		}
		if s.away[v] == e && s.away[v] > 0 {
			rep.Joins++
		}
		if !s.live(v, e) {
			continue
		}
		if wasLive && s.cfg.CrashRate > 0 && s.hash01(e, v, 2) < s.cfg.CrashRate {
			length := s.cfg.MinOutage + s.hashInt(e, v, 3, s.cfg.MaxOutage-s.cfg.MinOutage+1)
			s.down[v] = e + 1 + length
			rep.Crashes++
			continue
		}
		if wasLive && s.cfg.LeaveRate > 0 && s.hash01(e, v, 4) < s.cfg.LeaveRate {
			length := s.cfg.MinAway + s.hashInt(e, v, 5, s.cfg.MaxAway-s.cfg.MinAway+1)
			s.away[v] = e + 1 + length
			rep.Leaves++
		}
	}

	// 2. Mobility: every node walks, live or not — a crashed sensor drifts
	// and rejoins wherever it has moved to.
	for v := 0; v < s.cfg.N; v++ {
		if s.mob.Moves(e, v) {
			rep.Moves++
		}
	}
	s.mob.Advance(e, s.pts)

	// 3. Topology delta: desired = position-derived links between live
	// nodes; gray-zone coins frozen (salt 0) so link churn tracks movement.
	// The delta goes to the updater as one batch, removals first.
	g := s.up.Graph()
	desired := s.mob.GraphAt(s.pts, 0)
	var batch []dynamic.Event
	for _, ed := range g.Edges() {
		if !desired.HasEdge(ed.U, ed.V) || !s.live(ed.U, e) || !s.live(ed.V, e) {
			batch = append(batch, dynamic.Event{Kind: dynamic.LinkDown, U: ed.U, V: ed.V})
		}
	}
	rep.LinksDown = len(batch)
	for _, ed := range desired.Edges() {
		if s.live(ed.U, e) && s.live(ed.V, e) && !g.HasEdge(ed.U, ed.V) {
			batch = append(batch, dynamic.Event{Kind: dynamic.LinkUp, U: ed.U, V: ed.V})
		}
	}
	rep.LinksUp = len(batch) - rep.LinksDown

	// 4. Repair in measured distributed rounds, then re-verify the whole
	// schedule.
	ur, err := s.up.Apply(batch)
	if err != nil {
		return rep, fmt.Errorf("soak: epoch %d: %w", e, err)
	}
	rep.DirtyArcs = ur.DirtyArcs
	rep.ConvergenceRounds = ur.Rounds
	rep.MinUsable = ur.MinUsable
	as := s.up.Assignment()
	rep.Usable = coloring.UsableFraction(g, coloring.SlotsOf(g, as))
	rep.Residual = len(coloring.Verify(g, as))
	if rep.Residual != 0 {
		return rep, fmt.Errorf("soak: epoch %d left %d residual conflicts", e, rep.Residual)
	}

	// 5. Periodic protocol-level reschedule under loss and engine churn.
	if s.cfg.ProbeEvery > 0 && e > 0 && e%s.cfg.ProbeEvery == 0 {
		pr, err := s.engineProbe(e)
		if err != nil {
			return rep, err
		}
		rep.EngineProbe = &pr
	}

	for v := 0; v < s.cfg.N; v++ {
		if s.live(v, e) {
			rep.Live++
		}
	}
	rep.Slots = s.up.Slots()
	s.epoch++
	s.m.publish(rep)
	return rep, nil
}

// Run drives the soak for the given number of epochs and aggregates.
func (s *Soak) Run(epochs int) (Summary, error) {
	sum := Summary{MinUsable: 1}
	for i := 0; i < epochs; i++ {
		rep, err := s.Step()
		if err != nil {
			return sum, err
		}
		sum.Add(rep)
	}
	return sum, nil
}
