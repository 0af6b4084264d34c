package core

import (
	"errors"
	"strconv"

	"github.com/imcstudy/imcstudy/internal/decaf"
	"github.com/imcstudy/imcstudy/internal/dimes"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/transport"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Options tunes how experiments run.
type Options struct {
	// Steps is the number of coupling steps per run (default 3).
	Steps int
	// Quick trims the sweeps to a few representative points (used by unit
	// tests and testing.B benchmarks; cmd/imcbench runs the full sweeps).
	Quick bool
}

func (o Options) steps() int {
	if o.Steps > 0 {
		return o.Steps
	}
	return 3
}

// Scale is one (simulation, analytics) processor-count point.
type Scale struct {
	Sim, Ana int
}

// String renders the paper's "(sim, ana)" notation.
func (s Scale) String() string {
	return "(" + strconv.Itoa(s.Sim) + "," + strconv.Itoa(s.Ana) + ")"
}

// Fig2Scales are the processor counts of Figure 2 (the x-axis points).
func Fig2Scales(o Options) []Scale {
	if o.Quick {
		return []Scale{{32, 16}, {128, 64}, {512, 256}}
	}
	return []Scale{
		{32, 16}, {128, 64}, {512, 256},
		{2048, 1024}, {4096, 2048}, {8192, 4096},
	}
}

// Fig2Methods are the series of Figure 2.
func Fig2Methods(o Options) []workflow.Method {
	if o.Quick {
		return []workflow.Method{
			workflow.MethodSimOnly,
			workflow.MethodFlexpath,
			workflow.MethodDataSpacesNative,
			workflow.MethodDIMESNative,
			workflow.MethodDecaf,
			workflow.MethodMPIIO,
		}
	}
	return workflow.Methods()
}

// Machines returns the two machine models.
func Machines() []hpc.Spec {
	return []hpc.Spec{hpc.Titan(), hpc.Cori()}
}

// failureClass maps a run failure to its Table IV class name.
func failureClass(err error) string {
	switch {
	case errors.Is(err, rdma.ErrOutOfMemory):
		return "out-of-RDMA-memory"
	case errors.Is(err, rdma.ErrOutOfHandles):
		return "out-of-RDMA-handlers"
	case errors.Is(err, rdma.ErrDRCOverload):
		return "out-of-DRC"
	case errors.Is(err, rdma.ErrDRCNodeSecure):
		return "DRC-node-secure"
	case errors.Is(err, transport.ErrOutOfSockets):
		return "out-of-sockets"
	case errors.Is(err, hpc.ErrOutOfNodeMemory):
		return "out-of-main-memory"
	case errors.Is(err, hpc.ErrNodeFailed):
		return "node-failure"
	case errors.Is(err, dimes.ErrBufferFull):
		return "RDMA-buffer-full"
	case errors.Is(err, decaf.ErrHeterogeneous):
		return "no-heterogeneous-launch"
	default:
		return "other"
	}
}
