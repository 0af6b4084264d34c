package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// tinyCampaign is a minimal sweep used by the determinism tests: small
// enough to run in well under a second, wide enough to exercise the
// crash path, a transient path, and a mitigation.
func tinyCampaign() Campaign {
	return Campaign{
		Machine:     hpc.Titan(),
		Methods:     []workflow.Method{workflow.MethodDataSpacesNative},
		Faults:      []FaultKind{FaultCrash, FaultLoss},
		Intensities: []float64{0.5},
		Timings:     []float64{0.5},
		Mitigations: []Mitigation{MitigationNone, MitigationRetryRepl},
		Trials:      2,
		Seed:        7,
		SimProcs:    4,
		AnaProcs:    2,
		Steps:       1,
	}
}

// TestCampaignRerunIsByteIdentical is the core contract: the same
// campaign rerun at a different worker-pool width must produce the same
// Deterministic section, digest-for-digest — parallelism is wall-time
// only.
func TestCampaignRerunIsByteIdentical(t *testing.T) {
	a := tinyCampaign()
	a.Workers = 1
	b := tinyCampaign()
	b.Workers = 8
	ra, err := a.Run()
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	rb, err := b.Run()
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	da, err := ra.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := rb.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("digests differ across worker counts:\n 1 worker: %s\n 8 workers: %s", da, db)
	}
}

// TestSmokeCampaignMatchesGolden gates the CI smoke campaign on a
// committed digest: any change to the fault model, retry policy, trial
// seeding, or aggregation shows up here and must be regenerated
// deliberately with IMC_CHAOS_GOLDEN=update.
func TestSmokeCampaignMatchesGolden(t *testing.T) {
	rep, err := SmokeCampaign().Run()
	if err != nil {
		t.Fatalf("smoke campaign: %v", err)
	}
	digest, err := rep.Digest()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "smoke.digest")
	if os.Getenv("IMC_CHAOS_GOLDEN") == "update" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with IMC_CHAOS_GOLDEN=update): %v", err)
	}
	if digest != strings.TrimSpace(string(want)) {
		t.Fatalf("smoke campaign digest drifted:\n got  %s\n want %s\nregenerate with IMC_CHAOS_GOLDEN=update and explain the drift in the change",
			digest, strings.TrimSpace(string(want)))
	}
}

// TestSmokeCampaignShape sanity-checks the aggregated report: baselines
// present, the expected cell count, survival rates in range, and both
// survivals and failures represented somewhere in the sweep.
func TestSmokeCampaignShape(t *testing.T) {
	c := SmokeCampaign()
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("smoke campaign: %v", err)
	}
	d := rep.Deterministic
	if len(d.Baselines) != len(c.Methods) {
		t.Fatalf("%d baselines, want %d", len(d.Baselines), len(c.Methods))
	}
	for _, b := range d.Baselines {
		if b.EndToEnd <= 0 {
			t.Fatalf("baseline %s end-to-end %v, want > 0", b.Method, b.EndToEnd)
		}
	}
	wantCells := len(c.Methods) * len(c.Faults) * len(c.Intensities) * len(c.Timings) * len(c.Mitigations)
	if len(d.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(d.Cells), wantCells)
	}
	anySurvived, anyFailed := false, false
	for _, cell := range d.Cells {
		if cell.SurvivalRate < 0 || cell.SurvivalRate > 1 {
			t.Fatalf("cell %+v survival rate out of range", cell)
		}
		if cell.Survived > 0 {
			anySurvived = true
			if cell.Throughput <= 0 {
				t.Fatalf("surviving cell %s/%s has throughput %v", cell.Method, cell.Fault, cell.Throughput)
			}
		}
		if cell.Survived < cell.Trials {
			anyFailed = true
			if len(cell.FailureClasses) == 0 {
				t.Fatalf("failing cell %s/%s/%s reports no failure classes", cell.Method, cell.Fault, cell.Mitigation)
			}
		}
	}
	if !anySurvived || !anyFailed {
		t.Fatalf("smoke sweep should include both survivals and failures (survived=%v failed=%v)", anySurvived, anyFailed)
	}
	if len(d.Boundaries) != len(c.Methods)*len(c.Faults)*len(c.Mitigations) {
		t.Fatalf("%d boundaries, want %d", len(d.Boundaries), len(c.Methods)*len(c.Faults)*len(c.Mitigations))
	}
	for _, b := range d.Boundaries {
		if b.Survives > b.Dies {
			t.Fatalf("boundary %+v inverted", b)
		}
	}
	csv := rep.EncodeCSV()
	if lines := strings.Count(string(csv), "\n"); lines != wantCells+1 {
		t.Fatalf("CSV has %d lines, want header + %d cells", lines, wantCells)
	}
}

// TestCampaignValidate rejects malformed sweeps before any run starts.
func TestCampaignValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Campaign)
	}{
		{"no methods", func(c *Campaign) { c.Methods = nil }},
		{"no faults", func(c *Campaign) { c.Faults = nil }},
		{"no intensities", func(c *Campaign) { c.Intensities = nil }},
		{"no mitigations", func(c *Campaign) { c.Mitigations = nil }},
		{"unknown fault", func(c *Campaign) { c.Faults = []FaultKind{"cosmic-ray"} }},
		{"unknown mitigation", func(c *Campaign) { c.Mitigations = []Mitigation{"prayer"} }},
		{"intensity above 1", func(c *Campaign) { c.Intensities = []float64{1.5} }},
		{"negative timing", func(c *Campaign) { c.Timings = []float64{-0.1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tinyCampaign()
			tc.mut(&c)
			if _, err := c.Run(); err == nil {
				t.Fatal("Run accepted a malformed campaign")
			}
		})
	}
}
