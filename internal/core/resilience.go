package core

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Resilience extends the paper's Section IV-C assessment ("resilience
// mechanisms for machine failures have not been constructed in existing
// in-memory computing libraries") into a measurement. Part one repeats
// the gap: a staging-role node crashes mid-run and every staging
// library dies with it — only the file-based baseline survives. Part
// two closes it: the same crashes against the testbed's protection
// mechanisms, where DataSpaces survives a staging-node loss through
// k-way replication with failover reads, and DIMES survives a
// sim-node loss by rolling the coupling back to the last durable
// Lustre checkpoint.
func Resilience(o Options) *Table {
	t := &Table{
		ID:     "resilience",
		Title:  "Node-failure injection (Section IV-C extension), LAMMPS (64,32) on Titan, node crashes mid-run",
		Header: []string{"method", "protection", "outcome", "failure class"},
	}
	for _, method := range []workflow.Method{
		workflow.MethodFlexpath,
		workflow.MethodDataSpacesNative,
		workflow.MethodDIMESNative,
		workflow.MethodDecaf,
		workflow.MethodMPIIO,
	} {
		res, err := workflow.Run(workflow.Config{
			Machine:  hpc.Titan(),
			Method:   method,
			Workload: workflow.WorkloadLAMMPS,
			SimProcs: 64,
			AnaProcs: 32,
			Steps:    o.steps() + 2,
			// Crash after the first coupling step's data landed.
			Faults: workflow.StagingCrashAt(11),
		})
		switch {
		case err != nil:
			t.AddRow(method.String(), "none", "ERR", err.Error())
		case res.Failed:
			t.AddRow(method.String(), "none", "workflow crashed", failureClass(res.FailErr))
		default:
			t.AddRow(method.String(), "none", "survived ("+seconds(res.EndToEnd)+"s)", "-")
		}
	}

	// The same staging-node crash against k-way replicated DataSpaces:
	// readers fail over to surviving replicas and the failure detector
	// triggers re-replication of the lost objects.
	res, err := workflow.Run(workflow.Config{
		Machine:     hpc.Titan(),
		Method:      workflow.MethodDataSpacesNative,
		Workload:    workflow.WorkloadLAMMPS,
		SimProcs:    64,
		AnaProcs:    32,
		Steps:       o.steps() + 2,
		Servers:     6,
		Replication: 2,
		Faults:      workflow.StagingCrashAt(11),
	})
	switch {
	case err != nil:
		t.AddRow(workflow.MethodDataSpacesNative.String(), "replication k=2", "ERR", err.Error())
	case res.Failed:
		t.AddRow(workflow.MethodDataSpacesNative.String(), "replication k=2", "workflow crashed", failureClass(res.FailErr))
	case res.Recovered:
		t.AddRow(workflow.MethodDataSpacesNative.String(), "replication k=2",
			fmt.Sprintf("survived (recovered in %ss, %s MB re-replicated)",
				seconds(res.RecoveryTime), mb(res.RecoveredBytes)), "-")
	default:
		t.AddRow(workflow.MethodDataSpacesNative.String(), "replication k=2",
			"survived ("+seconds(res.EndToEnd)+"s) but did not recover", "-")
	}

	// The same staging-node crash against checkpoint-protected DIMES:
	// writers degrade to the Lustre path and readers are served from the
	// durable checkpoints.
	res, err = workflow.Run(workflow.Config{
		Machine:         hpc.Titan(),
		Method:          workflow.MethodDIMESNative,
		Workload:        workflow.WorkloadLAMMPS,
		SimProcs:        64,
		AnaProcs:        32,
		Steps:           o.steps() + 2,
		CheckpointEvery: 2,
		Faults:          workflow.StagingCrashAt(11),
	})
	switch {
	case err != nil:
		t.AddRow(workflow.MethodDIMESNative.String(), "checkpoint every 2", "ERR", err.Error())
	case res.Failed:
		t.AddRow(workflow.MethodDIMESNative.String(), "checkpoint every 2", "workflow crashed", failureClass(res.FailErr))
	default:
		t.AddRow(workflow.MethodDIMESNative.String(), "checkpoint every 2",
			fmt.Sprintf("survived (recovered: %d reads served from Lustre checkpoints)",
				res.FallbackReads), "-")
	}

	// A sim-node crash against checkpoint-protected DIMES: the dead
	// producers can never finish their in-flight step, so readers roll
	// back to the last checkpoint that reached Lustre.
	res, err = workflow.Run(workflow.Config{
		Machine:         hpc.Titan(),
		Method:          workflow.MethodDIMESNative,
		Workload:        workflow.WorkloadLAMMPS,
		SimProcs:        64,
		AnaProcs:        32,
		Steps:           o.steps() + 2,
		CheckpointEvery: 2,
		Faults: &workflow.FaultPlan{
			Crashes: []workflow.NodeCrash{{Role: workflow.RoleSim, Index: 0, At: 33}},
		},
	})
	const simCrash = "checkpoint every 2, sim-node crash"
	switch {
	case err != nil:
		t.AddRow(workflow.MethodDIMESNative.String(), simCrash, "ERR", err.Error())
	case res.Failed:
		t.AddRow(workflow.MethodDIMESNative.String(), simCrash, "workflow crashed", failureClass(res.FailErr))
	default:
		t.AddRow(workflow.MethodDIMESNative.String(), simCrash,
			fmt.Sprintf("survived (recovered: rolled back %d step-reads, %d fallback reads)",
				res.RolledBackSteps, res.FallbackReads), "-")
	}

	t.AddNote("unprotected, no staging library tolerates the loss of the node holding its staged data; MPI-IO survives because each step is already persisted on Lustre — the resilience gap Section IV-C calls out")
	t.AddNote("with protection the gap closes: replication rides out a staging-node loss via failover reads plus detector-driven re-replication, and the checkpoint fallback rides out a sim-node loss by serving readers the last durable version")
	return t
}

// ResilienceCost prices the protection mechanisms on a healthy run: no
// faults are injected, so every slowdown relative to the unprotected
// baseline is pure resilience overhead (extra replica puts, checkpoint
// writes to Lustre).
func ResilienceCost(o Options) *Table {
	t := &Table{
		ID:     "resilience-cost",
		Title:  "Cost of resilience: protection overhead with no faults injected, DataSpaces LAMMPS (64,32) on Titan",
		Header: []string{"protection", "end-to-end (s)", "overhead", "replicated (MB)", "checkpoints (MB)"},
	}
	type variant struct {
		label string
		repl  int
		ckpt  int
	}
	variants := []variant{
		{"none", 1, 0},
		{"replication k=2", 2, 0},
		{"replication k=3", 3, 0},
		{"checkpoint every 2", 1, 2},
		{"checkpoint every 1", 1, 1},
		{"replication k=2 + checkpoint every 2", 2, 2},
	}
	if o.Quick {
		variants = []variant{variants[0], variants[1], variants[3]}
	}
	var base sim.Time
	for _, v := range variants {
		res, err := workflow.Run(workflow.Config{
			Machine:         hpc.Titan(),
			Method:          workflow.MethodDataSpacesNative,
			Workload:        workflow.WorkloadLAMMPS,
			SimProcs:        64,
			AnaProcs:        32,
			Steps:           o.steps() + 2,
			Servers:         6,
			Replication:     v.repl,
			CheckpointEvery: v.ckpt,
			Metrics:         true,
		})
		if err != nil {
			t.AddRow(v.label, "ERR", err.Error(), "-", "-")
			continue
		}
		if res.Failed {
			t.AddRow(v.label, "FAILED", failureClass(res.FailErr), "-", "-")
			continue
		}
		if base == 0 {
			base = res.EndToEnd
		}
		overhead := "-"
		if base > 0 {
			overhead = fmt.Sprintf("+%.1f%%", (float64(res.EndToEnd)/float64(base)-1)*100)
		}
		replicated := int64(res.Metrics.Counter("resilience/replication/bytes").Value())
		t.AddRow(v.label, seconds(res.EndToEnd), overhead, mb(replicated), mb(res.CheckpointBytes))
	}
	t.AddNote("replication multiplies the put traffic across distinct-node staging servers; checkpointing adds shared-file Lustre writes on top of the staged path — the price of surviving the crashes in the resilience table")
	return t
}
