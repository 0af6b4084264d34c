package workflow

import (
	"github.com/imcstudy/imcstudy/internal/hpc"
)

// LargeScale returns a synthetic coupled-run configuration sized to a
// node budget on the given machine, with the paper's 2:1 simulation-to-
// analytics rank split and every core of an allocated node occupied.
// nodes <= 0 requests the full machine (spec.MaxNodes — 18,688 nodes on
// Titan, 9,688 on Cori KNL). Staging-server nodes are carved out of the
// same budget, so the resulting placement never exceeds the machine.
//
// This is the scaling preset behind `imcbench scale` and the BENCH_PR4
// suite: the modelled virtual times are deterministic for a given
// configuration, so the preset doubles as a reproducible performance
// workload for the simulator itself.
func LargeScale(spec hpc.Spec, method Method, nodes, steps int) Config {
	if nodes <= 0 {
		nodes = spec.MaxNodes
	}
	rpn := spec.CoresPerNode
	cfg := Config{
		Machine:  spec,
		Method:   method,
		Workload: WorkloadSynthetic,
		Steps:    steps,
	}
	// Split the node budget 2:1 sim:ana, then shave analytics nodes until
	// the method's staging servers fit in the budget too.
	simN := nodes * 2 / 3
	if simN < 1 {
		simN = 1
	}
	anaN := nodes - simN
	if anaN < 1 {
		anaN = 1
	}
	hasServers := method.traits().stages == stageServers
	for {
		cfg.SimProcs = simN * rpn
		cfg.AnaProcs = anaN * rpn
		serverN := 0
		if hasServers {
			serverN = ceilDiv(cfg.servers(), cfg.serversPerNode())
		}
		if simN+anaN+serverN <= nodes || anaN <= 1 {
			return cfg
		}
		anaN--
	}
}
