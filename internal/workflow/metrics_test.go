package workflow

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
)

var update = flag.Bool("update", false, "rewrite golden files")

// metricsBase is the small instrumented configuration the telemetry tests
// share: dense so payloads are real, tiny so the golden file stays small.
func metricsBase() Config {
	return Config{
		Machine:     hpc.Titan(),
		Method:      MethodDataSpacesNative,
		Workload:    WorkloadLAMMPS,
		SimProcs:    4,
		AnaProcs:    2,
		Steps:       2,
		Dense:       true,
		LAMMPSAtoms: 27,
		Trace:       true,
		Metrics:     true,
	}
}

func runMetrics(t *testing.T) Result {
	t.Helper()
	res, err := Run(metricsBase())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed {
		t.Fatalf("workflow failed: %v", res.FailErr)
	}
	return res
}

func TestMetricsPopulated(t *testing.T) {
	res := runMetrics(t)
	snap := res.Metrics.Snapshot()

	for _, c := range []string{
		"activity/compute/seconds", "activity/put/seconds",
		"activity/get/seconds", "activity/analyze/seconds",
		"staging/put/objects", "staging/put/bytes",
		"transport/rdma_eager/msgs",
	} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %s = %v, want > 0", c, snap.Counters[c])
		}
	}
	// put/get counts match ranks x steps.
	if got := snap.Counters["activity/put/count"]; got != 4*2 {
		t.Errorf("activity/put/count = %v, want 8", got)
	}
	if got := snap.Counters["activity/get/count"]; got != 2*2 {
		t.Errorf("activity/get/count = %v, want 4", got)
	}

	for _, s := range []string{
		"nic/sim-0/out_util", "nic/ana-0/in_util",
		"nic/dataspaces-server-0/in_util",
		"mem/dataspaces-server-0/staging",
		"mem/dataspaces-server-0/index",
		"mem/dataspaces-server-0", "mem/sim-0",
	} {
		if len(snap.Series[s]) == 0 {
			t.Errorf("series %s empty", s)
		}
	}
	if snap.Gauges["mem/dataspaces-server-0"].Peak <= 0 {
		t.Error("server memory peak not published")
	}
	// The published peak agrees with the memory tracker.
	want := float64(res.Tracker.Component("dataspaces-server-0").Peak())
	if got := snap.Gauges["mem/dataspaces-server-0"].Peak; got != want {
		t.Errorf("published peak = %v, tracker says %v", got, want)
	}
}

func TestMetricsDeterministic(t *testing.T) {
	a, b := runMetrics(t), runMetrics(t)

	aj, err := a.Metrics.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.Metrics.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Error("metrics JSON differs between identical runs")
	}
	if !bytes.Equal(a.Metrics.EncodeCSV(), b.Metrics.EncodeCSV()) {
		t.Error("metrics CSV differs between identical runs")
	}

	at, err := a.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	bt, err := b.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(at, bt) {
		t.Error("trace JSON differs between identical runs")
	}
}

// TestGoldenEnrichedTrace pins the full enriched trace export — thread
// metadata, argument-carrying spans, put->get flow arrows and counter
// tracks — against a golden file. Regenerate with `go test
// ./internal/workflow/ -run TestGoldenEnrichedTrace -update` (the
// package comes before -update, which go test does not know).
func TestGoldenEnrichedTrace(t *testing.T) {
	res := runMetrics(t)
	got, err := res.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}

	// Sanity-check the event mix before comparing, so a stale golden file
	// can't mask a regression in the exporter itself.
	for _, marker := range []string{
		`"ph":"M"`, `"ph":"X"`, `"ph":"C"`, `"ph":"s"`, `"ph":"f"`,
		`"bp":"e"`, `"step":"0"`, `"bytes":`, `"cat":"dataflow"`,
		`nic/sim-0/out_util`,
	} {
		if !strings.Contains(string(got), marker) {
			t.Errorf("trace JSON missing %s", marker)
		}
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace JSON deviates from %s (run with -update to regenerate)", golden)
	}
}

// TestMetricsDisabledByDefault pins the zero-cost contract: a run without
// Config.Metrics leaves Result.Metrics nil and records nothing.
func TestMetricsDisabledByDefault(t *testing.T) {
	cfg := metricsBase()
	cfg.Trace = false
	cfg.Metrics = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("workflow failed: %v", res.FailErr)
	}
	if res.Metrics != nil {
		t.Error("Result.Metrics set without Config.Metrics")
	}
	if res.Trace != nil {
		t.Error("Result.Trace set without Config.Trace")
	}
}
