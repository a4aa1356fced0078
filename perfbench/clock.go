package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read, and cpuNow below its only
// CPU-clock read. Every timing is a difference of two such readings taken in
// the benchmark's own code, so the code under test never sees a clock and its
// outputs stay a pure function of the generated inputs.
func now() time.Duration {
	return time.Duration(time.Now().UnixNano()) //lint:ignore detrand benchmark wall-clock helper; the code under test never sees it
}

// cpuNow returns the CPU time the process has used, user plus system, over
// all its threads. The end-to-end timings are CPU time because on a shared
// virtual machine the host steals CPU in bursts. Wall time then stretches by
// up to half for minutes at a time, while a guest kernel with paravirtual
// steal accounting keeps stolen time out of the process's CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clocks is a reading of both clocks.
type clocks struct{ wall, cpu time.Duration }

func readClocks() clocks { return clocks{wall: now(), cpu: cpuNow()} }

// since returns the wall and CPU time elapsed since c.
func (c clocks) since() clocks {
	n := readClocks()
	return clocks{wall: n.wall - c.wall, cpu: n.cpu - c.cpu}
}

// span is one traced call into a layer. Spans of one operation (a protocol
// run, a session request) share Op; Parent is the index of the enclosing
// span in the run's span list, or -1 for an operation's root span.
type span struct {
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records spans in memory during a traced run; they are written out
// once, when the run ends. A nil *spans is the untraced run: every method is
// a no-op, so untraced timings pay nothing for tracing.
type spans struct {
	t0   time.Duration
	list []span
	op   int64
}

func newSpans() *spans { return &spans{t0: now()} }

// nextOp starts a new operation id.
func (s *spans) nextOp() int64 {
	if s == nil {
		return 0
	}
	s.op++
	return s.op
}

// begin opens a span and returns its index for end and for children.
func (s *spans) begin(op int64, parent int, name string) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Op: op, Parent: parent, Name: name, Start: int64(now() - s.t0), End: -1})
	return len(s.list) - 1
}

// end closes the span opened by begin.
func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].End = int64(now() - s.t0)
}

// add records an already-measured interval (offsets from a now() reading).
func (s *spans) add(op int64, parent int, name string, start, end time.Duration) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Op: op, Parent: parent, Name: name, Start: int64(start - s.t0), End: int64(end - s.t0)})
	return len(s.list) - 1
}

// write dumps the spans as JSON to path, creating its directory.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
