// Package dynamic is the vocabulary of the paper's future-work direction
// (Section 9): maintaining an FDLSP schedule under topology churn — sensors
// joining, failing, moving, links appearing and disappearing. It defines
// the topology Event and its JSON wire form, the bridges that turn fault
// plans and mobility steps into events (CrashEvents, MoveEvents), and Diff,
// the per-node re-deployment set between two schedules. Applying events to
// a live schedule is internal/incr's job: incr.Updater is the one
// maintenance path, and every caller feeds it batches of these events.
package dynamic

import (
	"encoding/json"
	"fmt"
	"sort"

	"fdlsp/internal/coloring"
)

// EventKind discriminates topology events.
type EventKind int

const (
	// LinkUp adds the edge {U,V}.
	LinkUp EventKind = iota
	// LinkDown removes the edge {U,V}.
	LinkDown
	// NodeFail removes every link of node U (the sensor died).
	NodeFail
	// NodeJoin attaches node U to the neighbors listed in Peers.
	NodeJoin
	// NodeMove replaces node U's neighborhood with Peers (the sensor moved:
	// stale links drop, new links form).
	NodeMove
)

func (k EventKind) String() string {
	switch k {
	case LinkUp:
		return "link-up"
	case LinkDown:
		return "link-down"
	case NodeFail:
		return "node-fail"
	case NodeJoin:
		return "node-join"
	case NodeMove:
		return "node-move"
	default:
		return "invalid"
	}
}

// ParseEventKind maps the wire names ("link-up", "node-move", ...) back to
// their EventKind — the inverse of EventKind.String.
func ParseEventKind(s string) (EventKind, error) {
	for k := LinkUp; k <= NodeMove; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("dynamic: unknown event kind %q", s)
}

// Event is one topology change.
type Event struct {
	Kind  EventKind
	U, V  int
	Peers []int // NodeJoin / NodeMove
}

// jsonEvent is Event's wire form: the kind travels as its String name so
// clients of the session API write {"kind": "link-up", "u": 3, "v": 7}
// rather than opaque enum numbers.
type jsonEvent struct {
	Kind  string `json:"kind"`
	U     int    `json:"u"`
	V     int    `json:"v,omitempty"`
	Peers []int  `json:"peers,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	switch e.Kind {
	case LinkUp, LinkDown, NodeFail, NodeJoin, NodeMove:
	default:
		return nil, fmt.Errorf("dynamic: cannot marshal invalid event kind %d", int(e.Kind))
	}
	return json.Marshal(jsonEvent{Kind: e.Kind.String(), U: e.U, V: e.V, Peers: e.Peers})
}

// UnmarshalJSON implements json.Unmarshaler; an unknown kind is an error.
func (e *Event) UnmarshalJSON(data []byte) error {
	var je jsonEvent
	if err := json.Unmarshal(data, &je); err != nil {
		return err
	}
	k, err := ParseEventKind(je.Kind)
	if err != nil {
		return err
	}
	*e = Event{Kind: k, U: je.U, V: je.V, Peers: je.Peers}
	return nil
}

func (e Event) String() string {
	switch e.Kind {
	case LinkUp, LinkDown:
		return fmt.Sprintf("%v{%d,%d}", e.Kind, e.U, e.V)
	default:
		return fmt.Sprintf("%v{%d->%v}", e.Kind, e.U, e.Peers)
	}
}

// NodeDelta lists the slot-table changes one node must apply after a
// repair: deployment-wise, only these nodes need re-flashing.
type NodeDelta struct {
	Node    int
	TXAdded map[int]int // slot -> new receiver
	TXGone  []int       // slots no longer used for transmission
	RXAdded map[int]int // slot -> new transmitter
	RXGone  []int
}

// Changed reports whether the delta is non-empty.
func (d NodeDelta) Changed() bool {
	return len(d.TXAdded)+len(d.TXGone)+len(d.RXAdded)+len(d.RXGone) > 0
}

// Diff compares two assignments and returns, per affected node, the
// transmit/receive timetable changes — the minimal re-deployment set after
// incremental repair (nodes absent from the result keep their firmware
// schedule untouched).
func Diff(old, new coloring.Assignment) []NodeDelta {
	type key struct{ node, slot int }
	tables := func(as coloring.Assignment) (tx, rx map[key]int) {
		tx, rx = make(map[key]int, len(as)), make(map[key]int, len(as))
		for a, c := range as {
			tx[key{a.From, c}] = a.To
			rx[key{a.To, c}] = a.From
		}
		return tx, rx
	}
	oldTX, oldRX := tables(old)
	newTX, newRX := tables(new)
	deltas := map[int]*NodeDelta{}
	delta := func(v int) *NodeDelta {
		if deltas[v] == nil {
			deltas[v] = &NodeDelta{Node: v, TXAdded: map[int]int{}, RXAdded: map[int]int{}}
		}
		return deltas[v]
	}
	// Peers are node ids, and node 0 is one, so presence is tested with
	// comma-ok lookups, never against a map's zero value. A changed peer in
	// a kept slot lands in the Added map only.
	for k, peer := range newTX {
		if was, ok := oldTX[k]; !ok || was != peer {
			delta(k.node).TXAdded[k.slot] = peer
		}
	}
	for k := range oldTX {
		if _, ok := newTX[k]; !ok {
			d := delta(k.node)
			d.TXGone = append(d.TXGone, k.slot)
		}
	}
	for k, peer := range newRX {
		if was, ok := oldRX[k]; !ok || was != peer {
			delta(k.node).RXAdded[k.slot] = peer
		}
	}
	for k := range oldRX {
		if _, ok := newRX[k]; !ok {
			d := delta(k.node)
			d.RXGone = append(d.RXGone, k.slot)
		}
	}
	var out []NodeDelta
	for _, d := range deltas {
		sort.Ints(d.TXGone)
		sort.Ints(d.RXGone)
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
