package soak

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdlsp/internal/obs"
)

// TestSoakStreamGolden pins the soak's full output byte for byte: for every
// init mode and three seeded networks it records each EpochReport, each
// ProbeReport, the fdlsp_soak_* metrics exposition and a SHA-256 of the
// final schedule.
// Any change to the churn draws, the dirty-set rule, the repair rule or
// probe adoption shows here. To re-record after an intended change, delete
// testdata/stream.golden and run the test once.
func TestSoakStreamGolden(t *testing.T) {
	var b strings.Builder
	for _, mode := range []InitMode{InitGreedy, InitZero, InitConflict} {
		for _, run := range []struct {
			seed int64
			n    int
			side float64
		}{{1, 20, 7.5}, {2, 20, 7.5}, {3, 32, 9}} {
			reg := obs.NewRegistry()
			cfg := churnConfig(run.seed)
			cfg.N, cfg.Side = run.n, run.side
			cfg.Init = mode
			cfg.ProbeEvery = 37
			cfg.Metrics = reg
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== init=%s seed=%d n=%d\n", mode, run.seed, run.n)
			for i := 0; i < 100; i++ {
				rep, err := s.Step()
				if err != nil {
					t.Fatalf("%s/%d epoch %d: %v", mode, run.seed, i, err)
				}
				probe := rep.EngineProbe
				rep.EngineProbe = nil
				fmt.Fprintf(&b, "%+v\n", rep)
				if probe != nil {
					fmt.Fprintf(&b, "  probe %+v\n", *probe)
				}
			}
			var sched strings.Builder
			for _, a := range s.Graph().Arcs() {
				fmt.Fprintf(&sched, "%v=%d\n", a, s.Assignment()[a])
			}
			fmt.Fprintf(&b, "schedule sha256=%x\n", sha256.Sum256([]byte(sched.String())))
			b.WriteString(reg.Text())
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "stream.golden")
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", golden)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("soak stream drifted from %s:\n%s", golden, firstDiff(got, string(want)))
	}
}
