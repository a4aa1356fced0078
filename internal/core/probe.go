package core

import "fdlsp/internal/coloring"

// ProbePoint is one mid-run observation handed to Options.Probe: a snapshot
// of where the protocol is (phase, round) together with read access to the
// schedule built so far. Probes run between engine rounds in the sequential
// section — the protocol is paused, not stopped — so the snapshot is
// consistent: no node is mid-step, no message is mid-delivery. Because the
// hook fires at deterministic rounds with deterministic state, anything a
// probe derives (conflict counts, usable-frame fractions) inherits the
// engines' GOMAXPROCS-invariance.
type ProbePoint struct {
	// Phase names the running sub-protocol: "primary-mis", "secondary-mis"
	// or "coloring".
	Phase string
	// Round is the physical round just executed within the current phase.
	Round int64
	// Elapsed is the number of physical rounds completed by earlier phases,
	// so Elapsed+Round is protocol-global time.
	Elapsed int64

	pr *phaseRunner
}

// PartialSchedule assembles the arcs colored so far into a fresh assignment:
// each node contributes the colors of the arcs it colored itself, exactly as
// the final assembly will. Auditing it (coloring.AuditArcs, UsableArcs)
// during repair yields the residual-conflict and frame-usability metrics of
// the churn soak; uncolored arcs are simply absent. The returned map is the
// caller's to keep.
func (p ProbePoint) PartialSchedule() coloring.Assignment {
	count := 0
	for _, st := range p.pr.states {
		count += len(st.ownColored)
	}
	as := coloring.NewAssignmentSized(count)
	for _, st := range p.pr.states {
		for _, a := range st.ownColored {
			if c := st.know.Color(a); c != coloring.None {
				as[a] = c
			}
		}
	}
	return as
}

// ColoredArcs returns how many arcs currently hold a color, without building
// the schedule — the cheap progress gauge for high-frequency probes.
func (p ProbePoint) ColoredArcs() int {
	count := 0
	for _, st := range p.pr.states {
		for _, a := range st.ownColored {
			if st.know.Color(a) != coloring.None {
				count++
			}
		}
	}
	return count
}
