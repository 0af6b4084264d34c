package workflow

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
)

// TestReplicationSurvivesStagingCrash is the headline replication
// scenario: an unprotected DataSpaces run dies when a staging node is
// lost, but with k=2 replication across distinct server nodes the same
// crash is survived — readers fail over to the surviving replicas and
// the failure detector re-replicates the lost objects.
func TestReplicationSurvivesStagingCrash(t *testing.T) {
	cfg := Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLAMMPS,
		SimProcs: 8,
		AnaProcs: 4,
		Steps:    5,
		Servers:  6,
		Faults:   StagingCrashAt(11),
		Metrics:  true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("unprotected run should crash with the staging node")
	}

	cfg.Replication = 2
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("replicated run failed: %v", res.FailErr)
	}
	if !res.Recovered {
		t.Fatal("replicated run should recover the lost objects")
	}
	if res.RecoveryTime <= 0 || res.RecoveredBytes <= 0 {
		t.Fatalf("recovery time %v / bytes %d, want > 0", res.RecoveryTime, res.RecoveredBytes)
	}
	for _, counter := range []string{
		"resilience/failover/gets",
		"resilience/rereplication/bytes",
		"resilience/detected",
		"faults/crashes",
	} {
		if v := res.Metrics.Counter(counter).Value(); v <= 0 {
			t.Errorf("%s = %v, want > 0", counter, v)
		}
	}
}

// TestCheckpointFallbackRollsBack is the headline checkpoint scenario: a
// sim node dies mid-computation, so some committed steps can never be
// re-fetched and some future steps will never exist. With the Lustre
// checkpoint fallback the readers are served the last durable version —
// the coupling rolls back instead of the workflow aborting.
func TestCheckpointFallbackRollsBack(t *testing.T) {
	res, err := Run(Config{
		Machine:         hpc.Titan(),
		Method:          MethodDIMESNative,
		Workload:        WorkloadLAMMPS,
		SimProcs:        8,
		AnaProcs:        4,
		Steps:           5,
		CheckpointEvery: 2,
		Faults: &FaultPlan{
			Crashes: []NodeCrash{{Role: RoleSim, Index: 0, At: 33}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("checkpointed run failed: %v", res.FailErr)
	}
	if res.CheckpointWrites <= 0 || res.CheckpointBytes <= 0 {
		t.Fatalf("checkpoint writes %d / bytes %d, want > 0", res.CheckpointWrites, res.CheckpointBytes)
	}
	if res.FallbackReads <= 0 {
		t.Fatalf("fallback reads = %d, want > 0", res.FallbackReads)
	}
	if res.RolledBackSteps <= 0 {
		t.Fatalf("rolled-back steps = %d, want > 0 (crash lands before step 3 is durable)", res.RolledBackSteps)
	}
}

// TestCheckpointFallbackSurvivesStagingCrash: when the staging node
// dies the writers degrade to the Lustre path and readers are served
// from the durable checkpoints — survival without rollback.
func TestCheckpointFallbackSurvivesStagingCrash(t *testing.T) {
	res, err := Run(Config{
		Machine:         hpc.Titan(),
		Method:          MethodDIMESNative,
		Workload:        WorkloadLAMMPS,
		SimProcs:        8,
		AnaProcs:        4,
		Steps:           5,
		CheckpointEvery: 2,
		Faults:          StagingCrashAt(22),
		Metrics:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("checkpointed run failed: %v", res.FailErr)
	}
	if res.FallbackReads <= 0 {
		t.Fatalf("fallback reads = %d, want > 0", res.FallbackReads)
	}
	if v := res.Metrics.Counter("resilience/degraded_writers").Value(); v <= 0 {
		t.Errorf("resilience/degraded_writers = %v, want > 0", v)
	}
}

// TestStagingCrashAtComposesWithPlan: the StagingCrashAt plan takes
// further faults and still crashes an unprotected run, with both the
// crash and the added window injected.
func TestStagingCrashAtComposesWithPlan(t *testing.T) {
	plan := StagingCrashAt(11)
	plan.Timeouts = []TimeoutWindow{{Role: RoleSim, Index: 0, At: 0, Duration: 5, Extra: 0.001}}
	res, err := Run(Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLAMMPS,
		SimProcs: 8,
		AnaProcs: 4,
		Steps:    3,
		Faults:   plan,
		Metrics:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("unprotected run should still crash")
	}
	if v := res.Metrics.Counter("faults/crashes").Value(); v != 1 {
		t.Fatalf("faults/crashes = %v, want 1", v)
	}
	if v := res.Metrics.Counter("faults/timeout_windows").Value(); v != 1 {
		t.Fatalf("faults/timeout_windows = %v, want 1", v)
	}
}

// TestRandomCrashesFireOnEveryStagingPool: seed-expanded crashes draw
// from the staging pool, wherever the method stages: on its servers
// (DataSpaces) or on the writers' nodes (Flexpath).
func TestRandomCrashesFireOnEveryStagingPool(t *testing.T) {
	for _, method := range []Method{MethodDataSpacesNative, MethodFlexpath} {
		res, err := Run(Config{
			Machine:  hpc.Titan(),
			Method:   method,
			Workload: WorkloadLAMMPS,
			SimProcs: 32,
			AnaProcs: 16,
			Steps:    3,
			Faults:   &FaultPlan{Seed: 1, RandomCrashes: 1, RandomCrashHorizon: 1},
			Metrics:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Metrics.Counter("faults/crashes").Value(); v != 1 {
			t.Errorf("%v: faults/crashes = %v, want 1", method, v)
		}
	}
}

// TestLinkDegradationSlowsTheRun: throttling a staging node's NIC for a
// window must stretch the end-to-end time without failing anything.
func TestLinkDegradationSlowsTheRun(t *testing.T) {
	cfg := Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLAMMPS,
		SimProcs: 8,
		AnaProcs: 4,
		Steps:    3,
	}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultPlan{
		Degradations: []LinkDegradation{
			{Role: RoleStaging, Index: 0, At: 9, Duration: 30, Factor: 0.02},
		},
	}
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Failed {
		t.Fatalf("degraded run failed: %v", slow.FailErr)
	}
	if slow.EndToEnd <= base.EndToEnd {
		t.Fatalf("degraded e2e %v <= baseline %v, want slower", slow.EndToEnd, base.EndToEnd)
	}
}

// TestFaultPlanDeterminism: the same seed must reproduce the same run to
// the byte, including seed-expanded random crashes — the property the
// fault-plan sweeps in EXPERIMENTS.md rely on.
func TestFaultPlanDeterminism(t *testing.T) {
	run := func() []byte {
		res, err := Run(Config{
			Machine:  hpc.Titan(),
			Method:   MethodDataSpacesNative,
			Workload: WorkloadLAMMPS,
			SimProcs: 8,
			AnaProcs: 4,
			Steps:    5,
			Servers:  6,
			// Both protection layers on, under seed-chosen crashes.
			Replication:     2,
			CheckpointEvery: 2,
			Faults: &FaultPlan{
				Seed:               42,
				RandomCrashes:      1,
				RandomCrashHorizon: 30,
				Degradations: []LinkDegradation{
					{Role: RoleAna, Index: 0, At: 12, Duration: 5, Factor: 0.25},
				},
			},
			Metrics: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := res.Metrics.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same FaultPlan seed produced different metrics JSON")
	}
}

// TestGoldenFaultedRun pins the fault and resilience counters of a
// small crashed-and-survived run against a golden file, so behaviour
// drift in the protection machinery is caught even when every
// individual assertion still holds. Regenerate with -update.
func TestGoldenFaultedRun(t *testing.T) {
	cfg := metricsBase()
	cfg.Servers = 4
	cfg.Replication = 2
	cfg.CheckpointEvery = 2
	cfg.Steps = 3
	cfg.Trace = false
	cfg.Faults = StagingCrashAt(0.001)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("protected run failed: %v", res.FailErr)
	}
	if !res.Recovered {
		t.Fatal("protected run did not recover")
	}
	snap := res.Metrics.Snapshot()
	sel := make(map[string]float64)
	for name, v := range snap.Counters {
		for _, pfx := range []string{"faults/", "resilience/", "transport/timeouts/", "activity/put/count", "activity/get/count"} {
			if strings.HasPrefix(name, pfx) {
				sel[name] = v
			}
		}
	}
	sel["result/end_to_end_s"] = float64(res.EndToEnd)
	sel["result/recovery_time_s"] = float64(res.RecoveryTime)
	got, err := json.MarshalIndent(sel, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "faulted_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("faulted-run counters deviate from %s (run with -update to regenerate):\n%s", golden, got)
	}
}
