package soak

import (
	"fmt"

	"fdlsp/internal/core"
	"fdlsp/internal/incr"
)

// ProbeReport is the outcome of one protocol-level reschedule: the soak
// hands the live topology to DistMIS under message loss and a materialized
// window of the crash/restart stream, watches the schedule being built via
// the mid-run probe hook, and adopts the result.
type ProbeReport struct {
	Epoch int64
	// Rounds and Messages account the engine run.
	Rounds   int64
	Messages int64
	// Returned counts nodes that crashed and rejoined inside the run.
	Returned int
	// ProbePoints is the number of mid-run observations; ConvergedAt the
	// protocol-global round at which the first observation saw every arc of
	// the live topology colored (-1 if only the final state did).
	ProbePoints int
	ConvergedAt int64
	// Slots is the frame length of the adopted schedule.
	Slots int
}

// engineProbe runs the periodic reschedule for epoch e. The run's fault
// window comes from the soak's sim.FaultStream — sustained bounded
// crash/restart churn *inside* the protocol run, on top of message loss —
// so the probe exercises exactly the regime the soak exists to measure:
// convergence while the network keeps failing. All outages are bounded, so
// every node rejoins and the schedule covers the whole live topology; the
// adopted schedule is verified as a fresh updater wraps it.
func (s *Soak) engineProbe(e int64) (ProbeReport, error) {
	rep := ProbeReport{Epoch: e, ConvergedAt: -1}
	live := make([]bool, s.cfg.N)
	for v := range live {
		live[v] = s.live(v, e)
	}
	plan := s.stream.Plan(e, s.cfg.N, live, s.cfg.ProbeHorizon)
	g := s.up.Graph()
	target := len(g.ArcsView())
	res, err := core.DistMIS(g, core.Options{
		Seed:       s.cfg.Seed ^ (e+1)*0x9E3779B9,
		Fault:      plan,
		Metrics:    s.cfg.Metrics,
		ProbeEvery: 16,
		Probe: func(p core.ProbePoint) {
			rep.ProbePoints++
			if rep.ConvergedAt < 0 && p.ColoredArcs() >= target {
				rep.ConvergedAt = p.Elapsed + p.Round
			}
		},
	})
	if err != nil {
		return rep, fmt.Errorf("soak: engine probe at epoch %d: %w", e, err)
	}
	if len(res.Crashed) != 0 {
		return rep, fmt.Errorf("soak: engine probe at epoch %d lost nodes %v (outages are bounded)", e, res.Crashed)
	}
	up, err := incr.New(g, res.Assignment)
	if err != nil {
		return rep, fmt.Errorf("soak: engine probe at epoch %d: %w", e, err)
	}
	s.up = up
	rep.Rounds = res.Stats.Rounds
	rep.Messages = res.Stats.Messages
	rep.Returned = len(res.Rejoin.Returned)
	rep.Slots = res.Slots
	return rep, nil
}
