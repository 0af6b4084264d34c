package workflow

import (
	"errors"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/transport"
)

// denseBase returns a small dense LAMMPS configuration on Titan.
func denseBase(method Method) Config {
	return Config{
		Machine:     hpc.Titan(),
		Method:      method,
		Workload:    WorkloadLAMMPS,
		SimProcs:    4,
		AnaProcs:    2,
		Steps:       3,
		Dense:       true,
		LAMMPSAtoms: 27,
	}
}

func TestDenseLAMMPSThroughEveryMethod(t *testing.T) {
	for _, method := range []Method{
		MethodFlexpath,
		MethodDataSpacesADIOS, MethodDataSpacesNative,
		MethodDIMESADIOS, MethodDIMESNative,
		MethodDecaf, MethodMPIIO,
	} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			res, err := Run(denseBase(method))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Failed {
				t.Fatalf("workflow failed: %v", res.FailErr)
			}
			if !res.Verified {
				t.Fatal("dense run not verified")
			}
			if res.EndToEnd <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

func TestDenseLaplaceThroughEveryMethod(t *testing.T) {
	for _, method := range []Method{
		MethodFlexpath, MethodDataSpacesNative, MethodDIMESNative, MethodDecaf, MethodMPIIO,
	} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			res, err := Run(Config{
				Machine:     hpc.Titan(),
				Method:      method,
				Workload:    WorkloadLaplace,
				SimProcs:    4,
				AnaProcs:    2,
				Steps:       3,
				Dense:       true,
				LaplaceRows: 12,
				LaplaceCols: 12,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Failed {
				t.Fatalf("workflow failed: %v", res.FailErr)
			}
			if !res.Verified {
				t.Fatal("dense run not verified")
			}
		})
	}
}

func TestDenseSyntheticBothLayouts(t *testing.T) {
	for _, layout := range []synthetic.Layout{synthetic.LayoutMismatch, synthetic.LayoutMatched} {
		res, err := Run(Config{
			Machine:         hpc.Titan(),
			Method:          MethodDataSpacesNative,
			Workload:        WorkloadSynthetic,
			SimProcs:        4,
			AnaProcs:        2,
			Steps:           2,
			Dense:           true,
			SyntheticLayout: layout,
		})
		if err != nil {
			t.Fatalf("Run(%v): %v", layout, err)
		}
		if res.Failed {
			t.Fatalf("%v failed: %v", layout, res.FailErr)
		}
		if !res.Verified {
			t.Fatalf("%v not verified", layout)
		}
	}
}

func TestSimOnlyAndAnalyticsOnlyBaselines(t *testing.T) {
	simRes, err := Run(Config{
		Machine: hpc.Titan(), Method: MethodSimOnly, Workload: WorkloadLAMMPS,
		SimProcs: 4, AnaProcs: 2, Steps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	anaRes, err := Run(Config{
		Machine: hpc.Titan(), Method: MethodAnalyticsOnly, Workload: WorkloadLAMMPS,
		SimProcs: 4, AnaProcs: 2, Steps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Failed || anaRes.Failed {
		t.Fatalf("baselines failed: %v %v", simRes.FailErr, anaRes.FailErr)
	}
	// LAMMPS compute dominates MSD compute.
	if simRes.EndToEnd <= anaRes.EndToEnd {
		t.Fatalf("sim-only %v <= analytics-only %v", simRes.EndToEnd, anaRes.EndToEnd)
	}
}

func TestCoupledSlowerThanSimOnly(t *testing.T) {
	base := Config{
		Machine: hpc.Titan(), Workload: WorkloadLAMMPS,
		SimProcs: 32, AnaProcs: 16, Steps: 3,
	}
	simOnly := base
	simOnly.Method = MethodSimOnly
	r1, err := Run(simOnly)
	if err != nil {
		t.Fatal(err)
	}
	coupled := base
	coupled.Method = MethodFlexpath
	r2, err := Run(coupled)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Failed {
		t.Fatalf("coupled run failed: %v", r2.FailErr)
	}
	if r2.EndToEnd <= r1.EndToEnd {
		t.Fatalf("coupled %v <= sim-only %v", r2.EndToEnd, r1.EndToEnd)
	}
}

func TestSharedModeRejectedOnTitan(t *testing.T) {
	cfg := denseBase(MethodFlexpath)
	cfg.SharedNode = true
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Titan must reject node sharing (Finding 5)")
	}
}

func TestSharedModeRunsOnCori(t *testing.T) {
	cfg := denseBase(MethodFlexpath)
	cfg.Machine = hpc.Cori()
	cfg.SharedNode = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("shared-mode Flexpath on Cori failed: %v", res.FailErr)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
}

func TestSharedModeDecafRejectedOnCori(t *testing.T) {
	cfg := denseBase(MethodDecaf)
	cfg.Machine = hpc.Cori()
	cfg.SharedNode = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("Decaf shared mode must fail on Cori (no heterogeneous launch)")
	}
}

func TestSharedModeDataSpacesRDMARejectedByDRC(t *testing.T) {
	// With RDMA + DRC node-secure, the analytics job on a shared node is
	// denied a credential; sockets avoid the DRC entirely (Figure 13).
	cfg := denseBase(MethodDataSpacesNative)
	cfg.Machine = hpc.Cori()
	cfg.SharedNode = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !errors.Is(res.FailErr, rdma.ErrDRCNodeSecure) {
		t.Fatalf("want DRC node-secure failure, got failed=%v err=%v", res.Failed, res.FailErr)
	}
	cfg.TransportMode = transport.ModeSocket
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("socket shared mode failed: %v", res.FailErr)
	}
}

func TestLaplace128MBOutOfRDMAOnTitan(t *testing.T) {
	// 16 writers per node each staging 128 MB through DataSpaces exceeds
	// Titan's registered-memory pool on the server nodes (Figure 3).
	res, err := Run(Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLaplace,
		SimProcs: 64,
		AnaProcs: 32,
		Steps:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("expected out-of-RDMA failure at 128 MB/proc")
	}
	if !errors.Is(res.FailErr, rdma.ErrOutOfMemory) {
		t.Fatalf("failure = %v, want ErrOutOfMemory", res.FailErr)
	}
	// Doubling the staging servers spreads the load and succeeds (the
	// paper's mitigation in Figure 3).
	res2, err := Run(Config{
		Machine:  hpc.Titan(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLaplace,
		SimProcs: 64,
		AnaProcs: 32,
		Steps:    1,
		Servers:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed {
		t.Fatalf("doubled servers still failed: %v", res2.FailErr)
	}
}

func TestMemoryPeaksPopulated(t *testing.T) {
	res, err := Run(Config{
		Machine:  hpc.Cori(),
		Method:   MethodDataSpacesNative,
		Workload: WorkloadLAMMPS,
		SimProcs: 32,
		AnaProcs: 16,
		Steps:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("run failed: %v", res.FailErr)
	}
	// Client: ~173 MB compute + ~227 MB library = ~400 MB (Figure 5a).
	simPeak := float64(res.SimPeakBytes) / float64(1<<20)
	if simPeak < 380 || simPeak > 460 {
		t.Fatalf("sim peak = %.0f MB, want ~400 MB", simPeak)
	}
	if res.ServerPeakBytes == 0 {
		t.Fatal("server peak not recorded")
	}
	if res.DRCRequests == 0 {
		t.Fatal("DRC requests not recorded on Cori")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Machine: hpc.Titan(), Method: MethodSimOnly, Workload: WorkloadLAMMPS}); err == nil {
		t.Fatal("zero procs accepted")
	}
}

// TestUnknownMethodIsSetupError: a Method outside the table is a caller
// mistake, so Run rejects it up front rather than reporting a modelled
// failure; every listed method's name resolves back to it.
func TestUnknownMethodIsSetupError(t *testing.T) {
	for _, m := range []Method{0, 99} {
		cfg := denseBase(m)
		res, err := Run(cfg)
		if err == nil || res.Failed {
			t.Errorf("Method(%d): err=%v Failed=%v, want a setup error and no modelled failure", int(m), err, res.Failed)
		}
	}
	for _, m := range Methods() {
		if got, ok := MethodByName(m.String()); !ok || got != m {
			t.Errorf("MethodByName(%q) = %v, %v; want %v", m.String(), got, ok, m)
		}
	}
}

// TestDIMESDeploysConfiguredServers: DIMES runs exactly the requested
// number of metadata servers, packed two per node.
func TestDIMESDeploysConfiguredServers(t *testing.T) {
	for _, servers := range []int{2, 6} {
		cfg := denseBase(MethodDIMESNative)
		cfg.Servers = servers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Errorf("Servers=%d: run failed: %v", servers, res.FailErr)
			continue
		}
		n := 0
		for _, c := range res.Tracker.Components() {
			if strings.HasPrefix(c.Name(), "dimes-server-") {
				n++
			}
		}
		if n != servers {
			t.Errorf("Servers=%d: %d dimes-server components, want %d", servers, n, servers)
		}
	}
}
