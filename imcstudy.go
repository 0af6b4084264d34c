// Package imcstudy is a reproduction, as a discrete-event simulated
// testbed, of "A Comprehensive Study of In-Memory Computing on Large HPC
// Systems" (Huang, Qin, Liu, Podhorszki, Klasky — ICDCS 2020).
//
// The package is the public facade over the testbed:
//
//   - machine models of the paper's two supercomputers (Titan and Cori),
//     with NIC bandwidth, RDMA registration limits, DRC credentials,
//     socket descriptors and Lustre models;
//   - behavioural reimplementations of the studied staging libraries —
//     DataSpaces, DIMES, Flexpath and Decaf — plus the ADIOS framework
//     and an MPI-IO/Lustre baseline;
//   - the two scientific workflows (a real Lennard-Jones MD code coupled
//     to MSD analytics, and a real Jacobi Laplace solver coupled to
//     moment analysis), runnable dense (verified data) or synthetic
//     (paper-scale timing);
//   - the experiment registry that regenerates every figure and table of
//     the paper (see the Fig*/Table* functions).
//
// Quick start:
//
//	res, err := imcstudy.Run(imcstudy.RunConfig{
//	    Machine:  imcstudy.Titan(),
//	    Method:   imcstudy.MethodDataSpacesNative,
//	    Workload: imcstudy.WorkloadLAMMPS,
//	    SimProcs: 32, AnaProcs: 16,
//	})
//
// For the full study, run `go run ./cmd/imcbench all`.
package imcstudy

import (
	"io"
	"strings"

	"github.com/imcstudy/imcstudy/internal/chaos"
	"github.com/imcstudy/imcstudy/internal/core"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/prof"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/transport"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Aliases to the testbed's primary types, so downstream code can name
// them through the public package.
type (
	// MachineSpec describes a machine model (see Titan and Cori).
	MachineSpec = hpc.Spec
	// Method selects the coupling method for a run.
	Method = workflow.Method
	// WorkloadKind selects the coupled application pair.
	WorkloadKind = workflow.WorkloadKind
	// RunConfig configures one workflow run.
	RunConfig = workflow.Config
	// RunResult is the outcome of one workflow run.
	RunResult = workflow.Result
	// ExperimentOptions tunes the experiment sweeps.
	ExperimentOptions = core.Options
	// ResultTable is one renderable experiment result.
	ResultTable = core.Table
	// FindingResult is one verified row of the paper's Table V.
	FindingResult = core.Finding
	// MetricsRegistry is a run's telemetry registry (RunResult.Metrics
	// when RunConfig.Metrics was set); see its EncodeJSON/EncodeCSV.
	MetricsRegistry = metrics.Registry
	// RunProfile is a simulator self-profile (RunResult.Profile when
	// RunConfig.Profile was set): wall-time/event/allocation
	// attribution per (component kind, event site). Read one back with
	// prof.Decode via cmd/imcprof.
	RunProfile = prof.Profile
	// FaultPlan is a seed-deterministic schedule of injected faults
	// (RunConfig.Faults): node crashes, link degradations, timeout windows.
	FaultPlan = workflow.FaultPlan
	// NodeCrash fails one node abruptly at a virtual time.
	NodeCrash = workflow.NodeCrash
	// LinkDegradation throttles a node's NIC for a window.
	LinkDegradation = workflow.LinkDegradation
	// TimeoutWindow charges extra latency on a node's messages for a window.
	TimeoutWindow = workflow.TimeoutWindow
	// TransientWindow opens a probabilistic transient-fault window
	// (message loss, server-busy rejections or transient op failures,
	// depending on which FaultPlan list it sits in) on a node.
	TransientWindow = workflow.TransientWindow
	// FaultRole names the node pool a fault targets.
	FaultRole = workflow.FaultRole
	// FaultPools reports the per-role node pool sizes a FaultPlan is
	// validated against (see FaultPlan.Validate).
	FaultPools = workflow.FaultPools
	// RetryPolicy is the modeled client retry/backoff stance
	// (RunConfig.Retry): bounded attempts with deterministic seeded
	// jitter around exponential backoff.
	RetryPolicy = retry.Policy
	// ChaosCampaign sweeps fault kind x intensity x timing x method x
	// mitigation as seed-varied deterministic trials; see its Run method
	// and SmokeChaosCampaign.
	ChaosCampaign = chaos.Campaign
	// ChaosReport is a campaign's outcome: a digest-gated Deterministic
	// section plus informational wall time.
	ChaosReport = chaos.Report
	// ChaosFault names one injectable fault family in a campaign.
	ChaosFault = chaos.FaultKind
	// ChaosMitigation names one mitigation configuration under test.
	ChaosMitigation = chaos.Mitigation
)

// Structured failure sentinels for wedged or panicking runs: a run
// ending with the no-progress watchdog firing (RunConfig.StallHorizon)
// unwraps to ErrStalled; a modelled panic recovered into a structured
// error unwraps to ErrPanicked. Match with errors.Is.
var (
	ErrStalled  = sim.ErrStalled
	ErrPanicked = sim.ErrPanicked
)

// The sweepable chaos mitigations.
const (
	ChaosMitigationNone       = chaos.MitigationNone
	ChaosMitigationRetry      = chaos.MitigationRetry
	ChaosMitigationRepl       = chaos.MitigationRepl
	ChaosMitigationRetryRepl  = chaos.MitigationRetryRepl
	ChaosMitigationCheckpoint = chaos.MitigationCheckpoint
)

// ChaosFaults returns every injectable fault kind, in report order.
func ChaosFaults() []ChaosFault { return chaos.Kinds() }

// SmokeChaosCampaign returns the tiny CI chaos campaign (`imcbench
// chaos -smoke`, `make chaos-smoke`): every moving part exercised in
// seconds of wall time, digest-gated in internal/chaos's golden test.
func SmokeChaosCampaign() ChaosCampaign { return chaos.SmokeCampaign() }

// Fault target roles.
const (
	// RoleStaging targets the method's staging nodes.
	RoleStaging = workflow.RoleStaging
	// RoleSim targets simulation nodes.
	RoleSim = workflow.RoleSim
	// RoleAna targets analytics nodes.
	RoleAna = workflow.RoleAna
)

// Coupling methods (the series of the paper's Figure 2).
const (
	MethodSimOnly          = workflow.MethodSimOnly
	MethodAnalyticsOnly    = workflow.MethodAnalyticsOnly
	MethodFlexpath         = workflow.MethodFlexpath
	MethodDataSpacesADIOS  = workflow.MethodDataSpacesADIOS
	MethodDataSpacesNative = workflow.MethodDataSpacesNative
	MethodDIMESADIOS       = workflow.MethodDIMESADIOS
	MethodDIMESNative      = workflow.MethodDIMESNative
	MethodDecaf            = workflow.MethodDecaf
	MethodMPIIO            = workflow.MethodMPIIO
)

// Workloads (the paper's Table II).
const (
	WorkloadLAMMPS    = workflow.WorkloadLAMMPS
	WorkloadLaplace   = workflow.WorkloadLaplace
	WorkloadSynthetic = workflow.WorkloadSynthetic
)

// TransportMode selects a run's transport (RDMA or TCP sockets).
type TransportMode = transport.Mode

// Transport modes.
const (
	// TransportRDMA is the native RDMA path (uGNI/NNTI profiles).
	TransportRDMA = transport.ModeRDMA
	// TransportSocket is TCP sockets.
	TransportSocket = transport.ModeSocket
)

// GPUMode selects the accelerator scenario for a run (Section IV-B).
type GPUMode = workflow.GPUMode

// GPU scenarios.
const (
	// GPUOff runs host-resident data (the paper's configuration).
	GPUOff = workflow.GPUOff
	// GPUHostStaged pays PCIe copies around every put/get.
	GPUHostStaged = workflow.GPUHostStaged
	// GPUDirect stages from device memory over an NVLink-class path.
	GPUDirect = workflow.GPUDirect
)

// SyntheticLayout selects how the synthetic workload's array grows with
// the writer count (the two layouts of the paper's Figures 8 and 9).
type SyntheticLayout = synthetic.Layout

// Synthetic-workload layouts.
const (
	// LayoutMismatch scales a non-longest dimension: staging access
	// degenerates to N-to-1 (Figure 8a).
	LayoutMismatch = synthetic.LayoutMismatch
	// LayoutMatched scales the longest dimension: N-to-N access
	// (Figure 8b).
	LayoutMatched = synthetic.LayoutMatched
)

// Titan returns the Titan (OLCF, Cray Gemini) machine model.
func Titan() MachineSpec { return hpc.Titan() }

// Cori returns the Cori KNL (NERSC, Cray Aries) machine model.
func Cori() MachineSpec { return hpc.Cori() }

// Run executes one workflow configuration on a fresh simulated machine.
// Setup mistakes return an error; modelled runtime failures (out of RDMA
// memory, DRC overload, socket exhaustion, node OOM) are reported in
// RunResult.Failed / RunResult.FailErr, because they are study results.
func Run(cfg RunConfig) (RunResult, error) { return workflow.Run(cfg) }

// Methods returns every coupling method in the paper's order.
func Methods() []Method { return workflow.Methods() }

// MethodByName resolves a coupling method from its display name
// (Figure 2's legend), case-insensitively.
func MethodByName(name string) (Method, bool) { return workflow.MethodByName(name) }

// Workloads returns every workload in the paper's order.
func Workloads() []WorkloadKind { return workflow.Workloads() }

// WorkloadByName resolves a workload from its display name or short
// alias (lammps, laplace, synthetic), case-insensitively.
func WorkloadByName(name string) (WorkloadKind, bool) { return workflow.WorkloadByName(name) }

// Machines returns the study's machine models in the paper's order.
func Machines() []MachineSpec { return []MachineSpec{Titan(), Cori()} }

// MachineByName resolves a machine model from its name ("titan" or
// "cori", case-insensitively).
func MachineByName(name string) (MachineSpec, bool) {
	for _, m := range Machines() {
		if strings.EqualFold(m.Name, name) {
			return m, true
		}
	}
	return MachineSpec{}, false
}

// Experiment regenerators, one per figure/table of the paper. Each runs
// the workflows it needs and returns renderable tables.
var (
	// Fig2a is LAMMPS end-to-end time across methods, scales, machines.
	Fig2a = core.Fig2a
	// Fig2b is Laplace end-to-end time across methods, scales, machines.
	Fig2b = core.Fig2b
	// Fig3 is problem-size scaling of the Laplace workflow.
	Fig3 = core.Fig3
	// Fig4 is the RDMA acquire/release probe (registration limits).
	Fig4 = core.Fig4
	// Fig5 is per-processor memory of both workflows on Cori.
	Fig5 = core.Fig5
	// Fig6 is staging-server memory vs problem size (SFC index).
	Fig6 = core.Fig6
	// Fig7 is the memory breakdown by component and kind.
	Fig7 = core.Fig7
	// Fig8 illustrates the staging-area layouts (N-to-1 vs N-to-N).
	Fig8 = core.Fig8
	// Fig9 measures the impact of matching the data layout.
	Fig9 = core.Fig9
	// Fig10 compares socket and RDMA transports.
	Fig10 = core.Fig10
	// Fig11 sweeps the Decaf server count.
	Fig11 = core.Fig11
	// Fig12 sweeps the DataSpaces server count over sockets.
	Fig12 = core.Fig12
	// Fig13 runs the workflows in shared-node mode on Cori.
	Fig13 = core.Fig13
	// Table1 reports the modelled build/runtime configurations.
	Table1 = core.Table1
	// Table2 reports the workflow descriptions.
	Table2 = core.Table2
	// Table3 counts integration lines of code per library.
	Table3 = core.Table3
	// Table4 reproduces the robustness failures by injection.
	Table4 = core.Table4
	// Table5 is the qualitative findings matrix with verification.
	Table5 = core.Table5
	// Findings evaluates Findings 1-8 programmatically.
	Findings = core.Findings
	// Mitigations implements and measures the Table IV suggested resolves
	// (wait-and-retry RDMA, socket pooling, distributed DRC).
	Mitigations = core.Mitigations
	// Ablations sweeps the model's design parameters (NIC bandwidth,
	// Lustre efficiency, server packing, Flexpath queue depth).
	Ablations = core.Ablations
	// GPUStudy measures the GPU host-staging tax and the NVLink-class
	// direct-staging scenario of Section IV-B.
	GPUStudy = core.GPUStudy
	// Resilience injects a mid-run node failure and records which methods
	// survive (Section IV-C extension), unprotected and under the
	// testbed's replication and checkpoint-fallback protection.
	Resilience = core.Resilience
	// ResilienceCost prices the protection mechanisms on a healthy run
	// (replication factor and checkpoint interval vs the unprotected
	// baseline).
	ResilienceCost = core.ResilienceCost
)

// StagingCrashAt returns a fault plan that crashes the method's first
// staging node at virtual time t (RunConfig.Faults); see
// workflow.StagingCrashAt.
func StagingCrashAt(t float64) *FaultPlan { return workflow.StagingCrashAt(t) }

// LargeScale returns a synthetic coupled-run configuration sized to a
// node budget on the machine (nodes <= 0 = the full machine: 18,688
// Titan nodes, 9,688 Cori KNL nodes), with the paper's 2:1 sim:ana rank
// split and the method's staging servers carved from the same budget.
func LargeScale(spec MachineSpec, method Method, nodes, steps int) RunConfig {
	return workflow.LargeScale(spec, method, nodes, steps)
}

// RenderTables writes tables as aligned text.
func RenderTables(w io.Writer, tables []*ResultTable) error {
	return core.RenderAll(w, tables)
}

// RenderCharts writes each table's final numeric column as ASCII bars
// (an approximation of the paper's bar figures).
func RenderCharts(w io.Writer, tables []*ResultTable) error {
	return core.ChartAll(w, tables)
}
