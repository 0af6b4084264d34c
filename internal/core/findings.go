package core

import (
	"errors"
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/transport"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Finding is one row of Table V, with a programmatic verification.
type Finding struct {
	Name       string
	DataSpaces string
	DIMES      string
	Flexpath   string
	Decaf      string
	Verified   bool
	Detail     string
}

// Findings evaluates Findings 1-8 against the testbed, returning the
// Table V matrix with each finding's verification status.
func Findings(o Options) []Finding {
	steps := o.steps()
	out := make([]Finding, 0, 8)

	// Finding 1: in-memory staging is not always faster than file I/O —
	// DataSpaces under the N-to-1 mismatch loses to MPI-IO at scale.
	f1 := Finding{Name: "1: in-memory not always faster", DataSpaces: "+", DIMES: "-", Flexpath: "-", Decaf: "-"}
	ds, err1 := workflow.Run(workflow.Config{
		Machine: hpc.Titan(), Method: workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLAMMPS, SimProcs: 1024, AnaProcs: 512, Steps: steps,
	})
	io, err2 := workflow.Run(workflow.Config{
		Machine: hpc.Titan(), Method: workflow.MethodMPIIO,
		Workload: workflow.WorkloadLAMMPS, SimProcs: 1024, AnaProcs: 512, Steps: steps,
	})
	switch {
	case err1 != nil || err2 != nil || ds.Failed || io.Failed:
		f1.Detail = "runs failed"
	case ds.EndToEnd > io.EndToEnd:
		f1.Verified = true
		f1.Detail = fmt.Sprintf("DataSpaces %.1fs > MPI-IO %.1fs at (1024,512)", ds.EndToEnd, io.EndToEnd)
	default:
		f1.Detail = fmt.Sprintf("DataSpaces %.1fs <= MPI-IO %.1fs", ds.EndToEnd, io.EndToEnd)
	}
	f1.Verified = f1.Verified || ds.EndToEnd > io.EndToEnd
	out = append(out, f1)

	// Finding 2: high-level data abstraction is memory-expensive — the
	// Decaf dataflow footprint is ~7x raw; DataSpaces conditionally (SFC).
	f2 := Finding{Name: "2: rich abstraction costs memory", DataSpaces: "+/-", DIMES: "-", Flexpath: "-", Decaf: "+"}
	dec, err := workflow.Run(workflow.Config{
		Machine: hpc.Titan(), Method: workflow.MethodDecaf,
		Workload: workflow.WorkloadLaplace, SimProcs: 64, AnaProcs: 32, Steps: steps,
	})
	if err == nil && !dec.Failed {
		// Default Decaf provisioning: one dataflow rank per analytics proc.
		raw := int64(64) * (128 << 20) / 32
		ratio := float64(dec.ServerPeakBytes) / float64(raw)
		f2.Verified = ratio > 5 && ratio < 9 // ~7x staged-to-raw (Finding 2)
		f2.Detail = fmt.Sprintf("Decaf dataflow peak = %.1fx raw (paper: 7x)", ratio)
	} else {
		f2.Detail = "Decaf run failed"
	}
	out = append(out, f2)

	// Finding 3: decomposition mismatch causes N-to-1 staging access.
	f3 := Finding{Name: "3: layout mismatch -> N-to-1", DataSpaces: "+", DIMES: "-", Flexpath: "-", Decaf: "-"}
	var times [2]float64
	ok := true
	for i, layout := range []synthetic.Layout{synthetic.LayoutMismatch, synthetic.LayoutMatched} {
		res, err := workflow.Run(workflow.Config{
			Machine: hpc.Titan(), Method: workflow.MethodDataSpacesNative,
			Workload: workflow.WorkloadSynthetic, SimProcs: 64, AnaProcs: 32, Steps: steps,
			SyntheticLayout: layout,
		})
		if err != nil || res.Failed {
			ok = false
			break
		}
		times[i] = res.EndToEnd
	}
	if ok && times[1] > 0 {
		imp := times[0] / times[1]
		f3.Verified = imp > 1.8 // ~2x at this scale; grows with server count (Fig 9)
		f3.Detail = fmt.Sprintf("matched layout %.1fx faster (paper: up to 5.3x)", imp)
	} else {
		f3.Detail = "synthetic runs failed"
	}
	out = append(out, f3)

	// Finding 4: low-level RDMA beats sockets.
	f4 := Finding{Name: "4: native RDMA beats sockets", DataSpaces: "+", DIMES: "+", Flexpath: "+", Decaf: "-"}
	rdmaRes, err1 := workflow.Run(workflow.Config{
		Machine: hpc.Titan(), Method: workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLAMMPS, SimProcs: 128, AnaProcs: 64, Steps: steps,
	})
	sockRes, err2 := workflow.Run(workflow.Config{
		Machine: hpc.Titan(), Method: workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLAMMPS, SimProcs: 128, AnaProcs: 64, Steps: steps,
		TransportMode: transport.ModeSocket,
	})
	if err1 == nil && err2 == nil && !rdmaRes.Failed && !sockRes.Failed {
		gain := 100 * (1 - rdmaRes.EndToEnd/sockRes.EndToEnd)
		f4.Verified = gain > 0
		f4.Detail = fmt.Sprintf("uGNI %.1f%% faster than sockets (paper: up to 17.3%%)", gain)
	} else {
		f4.Detail = "runs failed"
	}
	out = append(out, f4)

	// Finding 5: shared memory helps but is restricted.
	f5 := Finding{Name: "5: shared memory helps, restricted", DataSpaces: "+/-", DIMES: "+/-", Flexpath: "+/-", Decaf: "-"}
	_, errTitan := workflow.Run(workflow.Config{
		Machine: hpc.Titan(), Method: workflow.MethodFlexpath,
		Workload: workflow.WorkloadLAMMPS, SimProcs: 32, AnaProcs: 16, Steps: 1,
		SharedNode: true,
	})
	// Laplace's matched decomposition gives the colocated deployment real
	// locality (every rank's staging server sits on its own node), so the
	// bus-speed copies show up end to end.
	sep, err1 := workflow.Run(workflow.Config{
		Machine: hpc.Cori(), Method: workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLaplace, SimProcs: 256, AnaProcs: 128, Steps: steps,
	})
	sh, err2 := workflow.Run(workflow.Config{
		Machine: hpc.Cori(), Method: workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLaplace, SimProcs: 256, AnaProcs: 128, Steps: steps,
		SharedNode: true, TransportMode: transport.ModeSocket,
	})
	if errTitan == nil {
		f5.Detail = "Titan accepted node sharing"
	} else if err1 == nil && err2 == nil && !sep.Failed && !sh.Failed && sh.EndToEnd < sep.EndToEnd {
		f5.Verified = true
		f5.Detail = fmt.Sprintf("Titan rejects sharing; Cori shared mode %.1f%% faster (paper: ~10%%)",
			100*(1-sh.EndToEnd/sep.EndToEnd))
	} else {
		f5.Detail = "Cori shared-mode comparison failed"
	}
	out = append(out, f5)

	// Finding 6: integration LoC is substantial (usability).
	f6 := Finding{Name: "6: far from plug-and-play", DataSpaces: "+", DIMES: "+", Flexpath: "+", Decaf: "-"}
	nativeLOC := locCount(dsNativeAPI) + locCount(dsBuildOptions) + locCount(dsRuntimeConfig)
	adiosLOC := locCount(adiosStagingAPI) + locCount(dsBuildOptions) + locCount(dsRuntimeConfig) + locCount(adiosXMLConfig)
	f6.Verified = nativeLOC > 50 && adiosLOC > 30
	f6.Detail = fmt.Sprintf("native integration %d LoC, ADIOS path %d LoC", nativeLOC, adiosLOC)
	out = append(out, f6)

	// Finding 7: portability across transport layers (high-level fallback
	// exists for every RDMA-only path).
	f7 := Finding{Name: "7: portable via layered transports", DataSpaces: "+", DIMES: "+", Flexpath: "+", Decaf: "-"}
	sock, err := workflow.Run(workflow.Config{
		Machine: hpc.Cori(), Method: workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLAMMPS, SimProcs: 32, AnaProcs: 16, Steps: 1,
		TransportMode: transport.ModeSocket,
	})
	f7.Verified = err == nil && !sock.Failed && sock.DRCRequests == 0
	f7.Detail = "socket fallback runs without touching DRC or uGNI"
	out = append(out, f7)

	// Finding 8: high abstraction can exhaust resources at scale (Decaf
	// main-memory blowup).
	f8 := Finding{Name: "8: abstraction can exhaust resources", DataSpaces: "-", DIMES: "-", Flexpath: "-", Decaf: "+"}
	oom, err := workflow.Run(workflow.Config{
		Machine: hpc.Titan(), Method: workflow.MethodDecaf,
		Workload: workflow.WorkloadLaplace, SimProcs: 64, AnaProcs: 32, Steps: 1,
		Servers: 8, ServersPerNode: 8,
	})
	f8.Verified = err == nil && oom.Failed && errors.Is(oom.FailErr, hpc.ErrOutOfNodeMemory)
	f8.Detail = "densely packed Decaf dataflow ranks exhaust node memory"
	out = append(out, f8)

	return out
}
