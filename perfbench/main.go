// Command perfbench is fdlsp's repository benchmark. It drives the system
// only through each layer's public entry points — core.DistMIS and core.DFS,
// incr.Updater.Apply, coloring, graph JSON decoding and fdlspd's HTTP
// handler — on inputs generated from the workload seed, checks every output
// for correctness, and prints one JSON result line on standard output:
//
//	perfbench --workload oneshot-clean --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, and the spans
// recorded around each call into a layer are written to --spans. README.md
// describes the workloads and which end-to-end metric each per-layer metric
// should move. run.sh builds the binary from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// spans records the traced run's spans; nil in an untraced run.
	spans *spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's operation counts, failures and metrics.
type report struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// op counts one attempted operation; ok=false also counts it as failed and
// records why.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records a failed operation or correctness check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric; its unit comes from the metric table.
func (r *report) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unitOf[name]}
}

// note adds a line to the human-readable summary on standard error.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config, *report) error{
	"oneshot-clean": func(c config, r *report) error { return runOneshot(c, r, false) },
	"oneshot-lossy": func(c config, r *report) error { return runOneshot(c, r, true) },
	"session-churn": runSession,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: oneshot-clean, oneshot-lossy or session-churn")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	secs := fs.Int("seconds", 25, "measured seconds per run (at least one full pass always runs)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	spansOut := fs.String("spans", "", "traced run: write the recorded spans to this JSON file (default .bench_build/spans/<workload>-<seed>.json)")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose metric names the result must match")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	want, err := specMetrics(*spec, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1}
	if cfg.trace {
		cfg.spans = newSpans()
	}
	rep := newReport()
	if err := fn(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		path := *spansOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-%d.json", cfg.workload, cfg.seed)
		}
		if err := cfg.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		rep.note("spans: %d written to %s", len(cfg.spans.list), path)
	}
	if err := checkNames(rep.metrics, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stderr, line)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "FAILED:", p)
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Fprintf(stderr, "  %-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// specMetrics reads the metric names of one mode from the benchmark
// definition and checks that the table below gives each one a unit.
func specMetrics(path string, perLayer bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if perLayer {
		list = spec.PerLayer
	}
	names := make([]string, 0, len(list))
	for _, m := range list {
		if unitOf[m.Name] != m.Unit {
			return nil, fmt.Errorf("%s: metric %s has unit %q, the benchmark reports %q", path, m.Name, m.Unit, unitOf[m.Name])
		}
		names = append(names, m.Name)
	}
	return names, nil
}

// checkNames fails unless the run reported exactly the wanted metrics.
func checkNames(got map[string]metric, want []string) error {
	var missing, extra []string
	wanted := make(map[string]bool, len(want))
	for _, name := range want {
		wanted[name] = true
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if !wanted[name] {
			extra = append(extra, name)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	return fmt.Errorf("reported metrics differ from the definition: missing %v, unexpected %v", missing, extra)
}
