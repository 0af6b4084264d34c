package workflow

import (
	"errors"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/transport"
)

func TestRDMAWaitRetryResolvesLaplace128MB(t *testing.T) {
	base := Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLaplace,
		SimProcs: 64, AnaProcs: 32, Steps: 1,
	}
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !errors.Is(res.FailErr, rdma.ErrOutOfMemory) {
		t.Fatalf("baseline should fail with out-of-RDMA, got failed=%v err=%v", res.Failed, res.FailErr)
	}
	fixed := base
	fixed.RDMAWaitRetry = true
	res2, err := Run(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed {
		t.Fatalf("wait-retry run failed: %v", res2.FailErr)
	}
	// The mitigation trades time: waiting writers serialize on the
	// server's registered memory.
	if res2.EndToEnd <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestSocketPoolResolvesDescriptorExhaustion(t *testing.T) {
	base := Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLAMMPS,
		SimProcs: 2048, AnaProcs: 1024, Steps: 1,
		TransportMode: transport.ModeSocket,
	}
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !errors.Is(res.FailErr, transport.ErrOutOfSockets) {
		t.Fatalf("baseline should exhaust sockets, got failed=%v err=%v", res.Failed, res.FailErr)
	}
	pooled := base
	pooled.SocketPoolSize = 64
	res2, err := Run(pooled)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed {
		t.Fatalf("pooled run failed: %v", res2.FailErr)
	}
}

func TestDRCShardsResolveStorm(t *testing.T) {
	// Lower the DRC backlog so a (512,256) run is a storm, then shard.
	spec := hpc.Cori()
	drc := *spec.DRC
	drc.MaxPending = 500
	spec.DRC = &drc
	base := Config{
		Machine:  spec,
		Method:   MethodDIMESNative,
		Workload: WorkloadLAMMPS,
		SimProcs: 512, AnaProcs: 256, Steps: 1,
	}
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !errors.Is(res.FailErr, rdma.ErrDRCOverload) {
		t.Fatalf("baseline should overload DRC, got failed=%v err=%v", res.Failed, res.FailErr)
	}
	sharded := base
	sharded.DRCShards = 4
	res2, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed {
		t.Fatalf("sharded run failed: %v", res2.FailErr)
	}
}

// TestADIOSPathSlightlySlowerThanNative runs each staging library that
// the paper uses both natively and through ADIOS, on both routes.
func TestADIOSPathSlightlySlowerThanNative(t *testing.T) {
	for _, pair := range [][2]Method{
		{MethodDataSpacesNative, MethodDataSpacesADIOS},
		{MethodDIMESNative, MethodDIMESADIOS},
	} {
		base := Config{
			Machine:  hpc.Titan(),
			Workload: WorkloadLAMMPS,
			SimProcs: 64, AnaProcs: 32, Steps: 3,
		}
		native := base
		native.Method = pair[0]
		rn, err := Run(native)
		if err != nil {
			t.Fatal(err)
		}
		adios := base
		adios.Method = pair[1]
		ra, err := Run(adios)
		if err != nil {
			t.Fatal(err)
		}
		if rn.Failed || ra.Failed {
			t.Fatalf("%v: runs failed: %v %v", pair, rn.FailErr, ra.FailErr)
		}
		// The framework adds a buffered copy per write: slightly slower,
		// never faster, and within a few percent (the paper's ADIOS and
		// native curves nearly overlap).
		if ra.EndToEnd < rn.EndToEnd {
			t.Fatalf("%v: ADIOS %.3f faster than native %.3f", pair, ra.EndToEnd, rn.EndToEnd)
		}
		if ra.EndToEnd > rn.EndToEnd*1.1 {
			t.Fatalf("%v: ADIOS %.3f more than 10%% over native %.3f", pair, ra.EndToEnd, rn.EndToEnd)
		}
		// And it buffers: the ADIOS path's client peak includes the copy,
		// which the native path never allocates.
		if ra.SimPeakBytes <= rn.SimPeakBytes {
			t.Fatalf("%v: ADIOS sim peak %d <= native %d, want extra buffer", pair, ra.SimPeakBytes, rn.SimPeakBytes)
		}
		if got := rn.Tracker.Component("sim-0").PeakOf("adios-buffer"); got != 0 {
			t.Fatalf("%v: native sim-0 adios-buffer peak %d, want 0", pair, got)
		}
		if got := ra.Tracker.Component("sim-0").PeakOf("adios-buffer"); got <= 0 {
			t.Fatalf("%v: ADIOS sim-0 adios-buffer peak %d, want > 0", pair, got)
		}
	}
}

func TestStagingTimesRecorded(t *testing.T) {
	res, err := Run(Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLAMMPS,
		SimProcs: 32, AnaProcs: 16, Steps: 2,
	})
	if err != nil || res.Failed {
		t.Fatalf("run: %v %v", err, res.FailErr)
	}
	if res.PutTime <= 0 || res.GetTime <= 0 {
		t.Fatalf("staging times not recorded: put=%v get=%v", res.PutTime, res.GetTime)
	}
	// GetTime includes waiting for writers to commit, so it can approach
	// (but not exceed) the whole run; PutTime is pure data movement.
	if res.PutTime >= res.EndToEnd || res.GetTime >= res.EndToEnd {
		t.Fatalf("staging times put=%v get=%v exceed end-to-end %v", res.PutTime, res.GetTime, res.EndToEnd)
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	res, err := Run(Config{
		Machine:  hpc.Titan(),
		Method:   MethodFlexpath,
		Workload: WorkloadLAMMPS,
		SimProcs: 4, AnaProcs: 2, Steps: 2,
		Trace: true,
	})
	if err != nil || res.Failed {
		t.Fatalf("run: %v %v", err, res.FailErr)
	}
	if res.Trace == nil {
		t.Fatal("trace not recorded")
	}
	spans := res.Trace.Spans()
	// 4 writers x 2 steps x (compute+put) + 2 readers x 2 steps x
	// (get+analyze) = 24 spans.
	if len(spans) != 24 {
		t.Fatalf("spans = %d, want 24", len(spans))
	}
	total := map[string]float64{}
	for _, s := range spans {
		total[s.Name] += s.Duration()
	}
	if total["compute"] <= 0 || total["put"] <= 0 {
		t.Fatal("span totals missing")
	}
	// Without Trace, no recorder is attached.
	res2, err := Run(Config{
		Machine:  hpc.Titan(),
		Method:   MethodFlexpath,
		Workload: WorkloadLAMMPS,
		SimProcs: 4, AnaProcs: 2, Steps: 1,
	})
	if err != nil || res2.Failed {
		t.Fatalf("run: %v %v", err, res2.FailErr)
	}
	if res2.Trace != nil {
		t.Fatal("trace attached without Config.Trace")
	}
}

func TestNodeFailureCrashesStaging(t *testing.T) {
	res, err := Run(Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLAMMPS,
		SimProcs: 16, AnaProcs: 8, Steps: 4,
		Faults: StagingCrashAt(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !errors.Is(res.FailErr, hpc.ErrNodeFailed) {
		t.Fatalf("want node-failure crash, got failed=%v err=%v", res.Failed, res.FailErr)
	}
	// MPI-IO rides out the same failure: its staging node is Lustre.
	res2, err := Run(Config{
		Machine:  hpc.Titan(),
		Method:   MethodMPIIO,
		Workload: WorkloadLAMMPS,
		SimProcs: 16, AnaProcs: 8, Steps: 4,
		Faults: StagingCrashAt(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed {
		t.Fatalf("MPI-IO should survive: %v", res2.FailErr)
	}
}
