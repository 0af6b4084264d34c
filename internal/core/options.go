package core

import (
	"strconv"

	"github.com/imcstudy/imcstudy/internal/hpc"
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
