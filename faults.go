package fdlsp

import (
	"fdlsp/internal/core"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/sim"
	"fdlsp/internal/transport"
	"fdlsp/internal/viz"
)

// This file exposes the fault-injection and reliable-transport layer: a
// seeded FaultPlan scripting message loss, duplication, reordering and node
// crashes; the ARQ transport both distributed algorithms run over when a
// plan is set; and the helpers for reasoning about the surviving subgraph a
// faulty run actually schedules.

type (
	// FaultPlan is a seeded, deterministic fault script: per-link message
	// loss, duplication, bounded reordering and node crashes at virtual
	// times. Set it on DistMISOptions.Fault or DFSOptions.Fault to run the
	// algorithm over the lossy channel (the engines then route protocol
	// traffic through the reliable transport automatically).
	FaultPlan = sim.FaultPlan
	// Crash schedules one node outage inside a FaultPlan: crash-stop when
	// RestartAt is zero, a bounded outage otherwise.
	Crash = sim.Crash
	// TransportOptions tunes the ack/retransmit transport (RTO, backoff
	// cap, max retries); the zero value selects sane defaults.
	TransportOptions = transport.Options
	// TransportTotals aggregates the transport-layer accounting of a run:
	// retransmissions, duplicates suppressed, acks, peers given up on.
	TransportTotals = transport.Totals
	// RejoinStats accounts a run's protocol-level crash recovery: nodes that
	// returned from bounded outages, resync-handshake message cost, and
	// driver re-launches (see Result.Rejoin).
	RejoinStats = core.RejoinStats
)

// SurvivingGraph returns g minus every edge incident to a crashed node —
// the subgraph a faulty run is accountable for. Verify the Assignment of a
// run that reported Crashed nodes against this graph, not the original.
func SurvivingGraph(g *Graph, crashed []int) *Graph { return core.SurvivingGraph(g, crashed) }

// CrashEventsFromPlan converts a FaultPlan's crash schedule into the
// topology events the maintenance path understands (NodeFail per crash,
// NodeJoin per restart with the then-alive neighbor set), so schedule-repair
// cost under the same fault script can be measured with
// IncrementalUpdater.Apply. Nodes the protocol already reintegrated in-band
// (Result.Rejoin.Returned) go in rejoined; their crash/restart pair is
// omitted so the repair is not double-counted.
func CrashEventsFromPlan(g *Graph, plan *FaultPlan, rejoined []int) []TopologyEvent {
	return dynamic.CrashEvents(g, plan, rejoined)
}

// RenderTimeline renders a recorded trace as a message-sequence chart with
// fault annotations: per-node lanes over virtual time, deliveries, dropped
// and duplicated messages, and crash/restart outage bands.
func RenderTimeline(events []TraceEvent, n int, st VizStyle) string {
	return viz.Timeline(events, n, st)
}
