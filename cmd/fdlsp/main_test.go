package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the golden files from the current output:
//
//	go test ./cmd/fdlsp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// golden invocations: small deterministic instances covering the main
// report, the verbose slot table, JSON output, the comparison table, and
// the -metrics snapshot. Every case must be fully seed-deterministic.
var goldenCases = []struct {
	name string
	args []string
}{
	{"distmis_grid", []string{"-gen", "grid", "-rows", "4", "-cols", "4", "-algo", "distmis", "-seed", "7"}},
	{"dfs_path_verbose", []string{"-gen", "path", "-n", "8", "-algo", "dfs", "-seed", "3", "-v"}},
	{"greedy_complete_json", []string{"-gen", "complete", "-n", "5", "-algo", "greedy", "-json"}},
	{"compare_cycle", []string{"-gen", "cycle", "-n", "9", "-algo", "distmis", "-seed", "2", "-compare"}},
	{"metrics_grid", []string{"-gen", "grid", "-rows", "3", "-cols", "3", "-algo", "distmis", "-seed", "1", "-metrics"}},
	{"metrics_dfs_tree", []string{"-gen", "tree", "-n", "10", "-algo", "dfs", "-seed", "5", "-metrics"}},
	{"churn_soak", []string{"-churn", "40", "-n", "20", "-seed", "9", "-loss", "0.1", "-churn-probe", "20", "-churn-report", "10"}},
	{"churn_conflict_metrics", []string{"-churn", "12", "-n", "16", "-seed", "2", "-churn-init", "conflict", "-churn-report", "4", "-metrics"}},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := cliMain(tc.args, &buf); err != nil {
				t.Fatalf("cliMain(%v): %v", tc.args, err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output drifted from %s (re-run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
					golden, buf.String(), want)
			}
		})
	}
}

// TestMetricsSnapshotDeterministic runs the same seeded instance twice and
// requires byte-identical output including the registry snapshot — the
// tentpole's per-seed determinism contract at the CLI surface.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	args := []string{"-gen", "grid", "-rows", "4", "-cols", "3", "-algo", "distmis", "-seed", "11", "-metrics"}
	var a, b bytes.Buffer
	if err := cliMain(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := cliMain(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two runs of the same seed produced different -metrics output")
	}
}

// TestWorkersFlagInvariant pins the -workers contract at the CLI surface:
// the full output — schedule, stats, metrics snapshot — is byte-identical
// whether the sync engine runs serial or on an oversubscribed worker pool.
func TestWorkersFlagInvariant(t *testing.T) {
	base := []string{"-gen", "gnm", "-n", "40", "-algo", "distmis", "-seed", "5", "-metrics", "-loss", "0.1"}
	var serial bytes.Buffer
	if err := cliMain(append([]string{"-workers", "1"}, base...), &serial); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"0", "4", "8"} {
		var buf bytes.Buffer
		if err := cliMain(append([]string{"-workers", w}, base...), &buf); err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		if !bytes.Equal(serial.Bytes(), buf.Bytes()) {
			t.Errorf("-workers %s output differs from -workers 1", w)
		}
	}
}

// TestMetricsFlagCoversFamilies sanity-checks the snapshot carries the
// core and sim families after a distmis run.
func TestMetricsFlagCoversFamilies(t *testing.T) {
	var buf bytes.Buffer
	if err := cliMain([]string{"-gen", "star", "-n", "6", "-algo", "distmis", "-metrics"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"metrics snapshot:",
		`fdlsp_core_runs_total{algorithm="distmis"} 1`,
		`fdlsp_sim_runs_total{engine="sync"}`,
		"# TYPE fdlsp_transport_segments_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q", want)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := cliMain([]string{"-gen", "nope"}, &buf); err == nil {
		t.Error("unknown generator accepted")
	}
	if err := cliMain([]string{"-gen", "path", "-n", "4", "-algo", "nope"}, &buf); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := cliMain([]string{"-gen", "path", "-n", "4", "-algo", "greedy", "-loss", "0.5"}, &buf); err == nil {
		t.Error("fault injection on unsupported algorithm accepted")
	}
	if err := cliMain([]string{"-crash", "zap"}, &buf); err == nil {
		t.Error("bad crash spec accepted")
	}
	if err := cliMain([]string{"-churn", "5", "-churn-init", "nope"}, &buf); err == nil {
		t.Error("bad churn init mode accepted")
	}
	if err := cliMain([]string{"-churn", "5", "-churn-crash", "1.5"}, &buf); err == nil {
		t.Error("out-of-range churn crash rate accepted")
	}
}

// TestInvalidTransportFlags checks that out-of-range -rto and -retries
// values on a fault run end the command with an error naming the option
// (main turns it into exit status 1), not a panic out of the engine.
func TestInvalidTransportFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gen", "path", "-n", "6", "-algo", "distmis", "-loss", "0.1", "-rto", "-2"}, "negative RTO -2"},
		{[]string{"-gen", "path", "-n", "6", "-algo", "dfs", "-loss", "0.1", "-retries", "-5"}, "invalid MaxRetries -5"},
	} {
		var buf bytes.Buffer
		err := cliMain(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestChurnSnapshotDeterministic reruns a seeded soak with -metrics and
// requires byte-identical output — the soak's determinism contract at the
// CLI surface.
func TestChurnSnapshotDeterministic(t *testing.T) {
	args := []string{"-churn", "30", "-n", "18", "-seed", "6", "-loss", "0.1",
		"-churn-probe", "15", "-metrics"}
	var a, b bytes.Buffer
	if err := cliMain(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := cliMain(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two runs of the same churn seed produced different output")
	}
	for _, want := range []string{"reschedule@15", "fdlsp_soak_epochs_total 30", "fdlsp_soak_engine_probes_total 1"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("churn output missing %q", want)
		}
	}
}
