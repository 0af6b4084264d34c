package core

import (
	"errors"
	"math"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/transport"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Table4 regenerates Table IV: the robustness lessons, by *injecting*
// each failure into the testbed and reporting the observed error class
// alongside the paper's suggested resolve.
func Table4(o Options) *Table {
	t := &Table{
		ID:     "table4",
		Title:  "Lessons of running in-memory workflows (Table IV) — each row reproduced by failure injection",
		Header: []string{"issue", "injection", "observed", "suggested resolve (paper)"},
	}

	// 1. Out of RDMA memory: 128 MB/proc Laplace through DataSpaces on
	// Titan under default provisioning.
	res, err := workflow.Run(workflow.Config{
		Machine:  hpc.Titan(),
		Method:   workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLaplace,
		SimProcs: 64, AnaProcs: 32, Steps: 1,
	})
	t.AddRow("out of RDMA memory",
		"Laplace 128 MB/proc via DataSpaces, default servers, Titan",
		observe(res, err),
		"add wait-and-retry; add an indirection layer that checks RDMA constraints in advance")

	// 2. Data dimension overflow: a 32-bit legacy build staging a variable
	// whose dimension exceeds 2^32.
	bigBox := ndarray.WholeArray([]uint64{5, 1 << 33})
	overflowErr := ndarray.Check32BitDims(bigBox)
	obs := "not detected"
	if errors.Is(overflowErr, ndarray.ErrDimOverflow) {
		obs = "FAIL(dimension-overflow): " + overflowErr.Error()
	}
	t.AddRow("data dimension overflow",
		"declare a variable with a >2^32 dimension under 32-bit dims",
		obs,
		"switch to 64-bit unsigned long int")

	// 3. Out of main memory: Decaf's 7x footprint with dataflow ranks
	// packed densely on 32 GB nodes.
	res, err = workflow.Run(workflow.Config{
		Machine:  hpc.Titan(),
		Method:   workflow.MethodDecaf,
		Workload: workflow.WorkloadLaplace,
		SimProcs: 64, AnaProcs: 32, Steps: 1,
		Servers:        8,
		ServersPerNode: 8, // dense packing: 8 x ~7 GB of 7x-inflated staging per node
	})
	t.AddRow("out of main memory",
		"Decaf staging 128 MB/proc at 7x inflation, 8 dataflow ranks per 32 GB node",
		observe(res, err),
		"profile memory to provision correctly; free regions not immediately needed")

	// 4. Out of sockets: DataSpaces over TCP with every client connecting
	// to every server (the LAMMPS mismatch) beyond (1024, 512).
	sockScale := Scale{2048, 1024}
	if o.Quick {
		// A trimmed variant with an artificially small sweep would not
		// exhaust descriptors; run the real boundary even in quick mode but
		// with a single step.
		sockScale = Scale{2048, 1024}
	}
	res, err = workflow.Run(workflow.Config{
		Machine:  hpc.Titan(),
		Method:   workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLAMMPS,
		SimProcs: sockScale.Sim, AnaProcs: sockScale.Ana, Steps: 1,
		TransportMode: transport.ModeSocket,
	})
	t.AddRow("out of sockets",
		"DataSpaces over TCP at (2048,1024), all clients reach all servers",
		observe(res, err),
		"restrict the communication pattern; or pool sockets at some efficiency cost")

	// 5. Out of DRC: the (8192, 4096) start-up storm against Cori's
	// credential service.
	res, err = workflow.Run(workflow.Config{
		Machine:  hpc.Cori(),
		Method:   workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLAMMPS,
		SimProcs: 8192, AnaProcs: 4096, Steps: 1,
	})
	t.AddRow("out of DRC",
		"12,288 ranks acquiring credentials at job start on Cori",
		observe(res, err),
		"add an indirection layer for DRC requests; redesign DRC as a distributed service")

	return t
}

func observe(res workflow.Result, err error) string {
	switch {
	case err != nil:
		return "setup error: " + err.Error()
	case res.Failed:
		return failCell(res.FailErr)
	default:
		return "ran to completion (no failure)"
	}
}

// almostEq helps findings checks compare virtual times.
func almostEq(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/den <= relTol
}
