package core

import (
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Ablations sweeps the design parameters DESIGN.md calls out, isolating
// how much each machine/library characteristic contributes to the
// paper's effects. Four studies:
//
//  1. interconnect bandwidth — why Finding 1's N-to-1 penalty appears on
//     Titan (Gemini) but not on Cori (Aries);
//  2. Lustre shared-file efficiency — what drives MPI-IO's linear growth;
//  3. staging-server packing density — node memory versus node count;
//  4. Flexpath queue depth — the decoupling/memory trade of queue_size.
func Ablations(o Options) []*Table {
	return []*Table{
		ablateInterconnect(o),
		ablateLustreEff(o),
		ablateServerPacking(o),
		ablateQueueSize(o),
	}
}

// ablateInterconnect reruns the N-to-1 scenario on Titan variants with
// increasing NIC bandwidth.
func ablateInterconnect(o Options) *Table {
	t := &Table{
		ID:     "ablation-nic",
		Title:  "Ablation: NIC injection bandwidth vs the N-to-1 penalty (LAMMPS (1024,512) via DataSpaces)",
		Header: []string{"NIC GB/s", "DataSpaces e2e s", "Flexpath e2e s", "penalty"},
	}
	factors := []float64{1, 2, 2.84, 4}
	if o.Quick {
		factors = []float64{1, 2.84}
	}
	for _, f := range factors {
		spec := hpc.Titan()
		spec.NICBytesPerSec *= f
		ds := endToEnd(workflow.Run(workflow.Config{
			Machine: spec, Method: workflow.MethodDataSpacesNative,
			Workload: workflow.WorkloadLAMMPS, SimProcs: 1024, AnaProcs: 512, Steps: o.steps(),
		}))
		fp := endToEnd(workflow.Run(workflow.Config{
			Machine: spec, Method: workflow.MethodFlexpath,
			Workload: workflow.WorkloadLAMMPS, SimProcs: 1024, AnaProcs: 512, Steps: o.steps(),
		}))
		t.AddRow(decimal(spec.NICBytesPerSec/1e9, 1), ds, fp, derive(ds, fp, func(ds, fp float64) Cell {
			return ratio(ds/fp, 2)
		}))
	}
	t.AddNote("2.84x is the Aries/Gemini ratio: the penalty that motivates Finding 1 on Titan shrinks into the noise at Cori-class bandwidth, matching the paper's cross-platform observation")
	return t
}

// ablateLustreEff sweeps the shared-file efficiency behind MPI-IO.
func ablateLustreEff(o Options) *Table {
	t := &Table{
		ID:     "ablation-lustre",
		Title:  "Ablation: Lustre shared-file efficiency vs MPI-IO end-to-end (LAMMPS (2048,1024) on Titan)",
		Header: []string{"efficiency", "MPI-IO e2e s"},
	}
	effs := []float64{0.01, 0.03, 0.10, 0.30}
	if o.Quick {
		effs = []float64{0.03, 0.30}
	}
	for _, eff := range effs {
		spec := hpc.Titan()
		spec.Lustre.SharedFileEff = eff
		t.AddRow(decimal(eff, 2), endToEnd(workflow.Run(workflow.Config{
			Machine: spec, Method: workflow.MethodMPIIO,
			Workload: workflow.WorkloadLAMMPS, SimProcs: 2048, AnaProcs: 1024, Steps: o.steps(),
		})))
	}
	t.AddNote("the calibrated value (0.03) places MPI-IO's crossover where Figure 2 puts it; even at 0.30 the linear-in-scale trend persists because the OST pool is fixed")
	return t
}

// ablateServerPacking varies DataSpaces servers-per-node at a fixed
// server count.
func ablateServerPacking(o Options) *Table {
	t := &Table{
		ID:     "ablation-packing",
		Title:  "Ablation: DataSpaces servers per node, Laplace (64,32) on Titan, 8 servers",
		Header: []string{"servers/node", "outcome", "per-node peak staging MB"},
	}
	densities := []int{1, 2, 4}
	if o.Quick {
		densities = []int{1, 4}
	}
	for _, d := range densities {
		res, err := workflow.Run(workflow.Config{
			Machine: hpc.Titan(), Method: workflow.MethodDataSpacesNative,
			Workload: workflow.WorkloadLaplace, SimProcs: 64, AnaProcs: 32, Steps: o.steps(),
			Servers: 8, ServersPerNode: d,
		})
		peak := dash
		if runFailure(res, err) == nil {
			peak = mb(res.ServerPeakBytes * int64(d))
		}
		t.AddRow(count(d), outcome(res, err), peak)
	}
	t.AddNote("packing trades node count for per-node memory and NIC contention; the paper's 2-per-node default is the middle point")
	return t
}

// ablateQueueSize varies Flexpath's queue_size with analytics slower
// than the simulation, measuring the writer-side memory cost of
// decoupling.
func ablateQueueSize(o Options) *Table {
	t := &Table{
		ID:     "ablation-queue",
		Title:  "Ablation: Flexpath queue_size (LAMMPS (64,32) on Titan)",
		Header: []string{"queue_size", "e2e s", "writer staging peak MB"},
	}
	depths := []int{1, 2, 4}
	if o.Quick {
		depths = []int{1, 4}
	}
	for _, q := range depths {
		res, err := workflow.Run(workflow.Config{
			Machine: hpc.Titan(), Method: workflow.MethodFlexpath,
			Workload: workflow.WorkloadLAMMPS, SimProcs: 64, AnaProcs: 32, Steps: o.steps(),
			QueueSize: q,
		})
		if f := runFailure(res, err); f != nil {
			t.AddRow(count(q), failed(f), dash)
			continue
		}
		t.AddRow(count(q), seconds(res.EndToEnd), mb(res.Tracker.Component("sim-0").PeakOf("staging")))
	}
	t.AddNote("queue_size=1 (Table I) bounds writer-side staging to one version; deeper queues trade simulation-side memory for pipeline slack")
	return t
}
