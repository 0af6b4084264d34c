// Package workflow couples a scientific simulation with its data
// analytics through one of the studied methods — Flexpath, DataSpaces and
// DIMES (each natively or through ADIOS), Decaf, or MPI-IO on Lustre —
// on a modelled machine, and measures the end-to-end behaviour the paper
// reports: run time, per-component memory, staging time, and the failure
// modes of Table IV.
package workflow

import (
	"fmt"
	"strings"

	"github.com/imcstudy/imcstudy/internal/adios"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/staging"
)

// Method selects the coupling method (the series of Figure 2).
type Method int

// Coupling methods.
const (
	// MethodSimOnly runs the simulation without I/O (baseline).
	MethodSimOnly Method = iota + 1
	// MethodAnalyticsOnly runs the analytics compute without I/O.
	MethodAnalyticsOnly
	// MethodFlexpath couples through Flexpath (via ADIOS, its only form).
	MethodFlexpath
	// MethodDataSpacesADIOS couples through DataSpaces behind ADIOS.
	MethodDataSpacesADIOS
	// MethodDataSpacesNative couples through the native DataSpaces API.
	MethodDataSpacesNative
	// MethodDIMESADIOS couples through DIMES behind ADIOS.
	MethodDIMESADIOS
	// MethodDIMESNative couples through the native DIMES API.
	MethodDIMESNative
	// MethodDecaf couples through the Decaf dataflow.
	MethodDecaf
	// MethodMPIIO dumps to Lustre and post-processes (the file baseline).
	MethodMPIIO
)

// stagingSite says where a method keeps the data it stages between a
// writer's put and the readers' get — the nodes a RoleStaging fault hits.
type stagingSite int

const (
	// stageNone: nothing is staged on compute nodes (the baselines, and
	// MPI-IO, whose data is on Lustre).
	stageNone stagingSite = iota
	// stageServers: the staging servers' nodes (DataSpaces, DIMES,
	// Decaf).
	stageServers
	// stageWriters: writer-side, on the simulation nodes (Flexpath).
	stageWriters
)

// methodTraits is one row of the method table: every per-method decision
// of the workflow, i.e. the provisioning policy of Table I and Section III.
type methodTraits struct {
	name string
	// couples reports whether the method moves data at all; sim and ana
	// whether it runs the simulation and the analytics ranks.
	couples, sim, ana bool
	stages            stagingSite
	// servers is the default staging-server count for a run with
	// anaProcs analytics ranks; nil when the method deploys no servers.
	servers func(anaProcs int) int
	// adios is the ADIOS method the coupling goes through (0 = native).
	adios adios.MethodKind
	// rdmaBufBytes is the default per-client RDMA buffer (DIMES).
	rdmaBufBytes int64
	// serverPrefix names the staging servers' memprof components.
	serverPrefix string
	// newCoupler builds the method's coupler (see buildCoupler).
	newCoupler func(Config, *hpc.Machine, *driver, *layout, *staging.Detector) (coupler, error)
}

// methodTable holds one row per Method; row 0, the zero row, stands for
// every unknown method. It is filled by init because the coupler
// constructors read the table back, which a package-level initializer
// may not do.
var methodTable [MethodMPIIO + 1]methodTraits

func init() {
	// DataSpaces: one server per 8 analytics processors.
	dataSpacesServers := func(ana int) int { return max(ana/8, 1) }
	// DIMES: four metadata servers.
	dimesServers := func(int) int { return 4 }
	methodTable = [...]methodTraits{
		MethodSimOnly: {
			name: "simulation-only", sim: true,
			newCoupler: newNopCoupler,
		},
		MethodAnalyticsOnly: {
			name: "analytics-only", ana: true,
			newCoupler: newNopCoupler,
		},
		MethodFlexpath: {
			name: "Flexpath", couples: true, sim: true, ana: true,
			stages: stageWriters, adios: adios.MethodFlexpath,
			newCoupler: newFlexpathCoupler,
		},
		MethodDataSpacesADIOS: {
			name: "DataSpaces/ADIOS", couples: true, sim: true, ana: true,
			stages: stageServers, servers: dataSpacesServers, adios: adios.MethodDataSpaces,
			serverPrefix: "dataspaces-server", newCoupler: newDataSpacesCoupler,
		},
		MethodDataSpacesNative: {
			name: "DataSpaces/native", couples: true, sim: true, ana: true,
			stages: stageServers, servers: dataSpacesServers,
			serverPrefix: "dataspaces-server", newCoupler: newDataSpacesCoupler,
		},
		MethodDIMESADIOS: {
			name: "DIMES/ADIOS", couples: true, sim: true, ana: true,
			stages: stageServers, servers: dimesServers, adios: adios.MethodDIMES,
			rdmaBufBytes: 1 << 30, // Table I: 1 GiB through ADIOS
			serverPrefix: "dimes-server", newCoupler: newDIMESCoupler,
		},
		MethodDIMESNative: {
			name: "DIMES/native", couples: true, sim: true, ana: true,
			stages: stageServers, servers: dimesServers,
			rdmaBufBytes: 2 << 30, // Table I: 2 GiB native
			serverPrefix: "dimes-server", newCoupler: newDIMESCoupler,
		},
		MethodDecaf: {
			name: "Decaf", couples: true, sim: true, ana: true,
			// One dataflow server per analytics processor.
			stages: stageServers, servers: func(ana int) int { return ana },
			serverPrefix: "decaf-server", newCoupler: newDecafCoupler,
		},
		MethodMPIIO: {
			name: "MPI-IO", couples: true, sim: true, ana: true,
			newCoupler: newMPIIOCoupler,
		},
	}
}

// traits returns the method's row of the method table (the zero row for
// an unknown method).
func (m Method) traits() *methodTraits {
	if m > 0 && int(m) < len(methodTable) {
		return &methodTable[m]
	}
	return &methodTable[0]
}

// known reports whether m is one of the coupling methods.
func (m Method) known() bool { return m.traits().newCoupler != nil }

// String returns the method's display name (matching the paper's legend).
func (m Method) String() string {
	if !m.known() {
		return fmt.Sprintf("Method(%d)", int(m))
	}
	return m.traits().name
}

// ServerPrefix returns the memory-profile component prefix of the
// method's staging servers ("dataspaces-server", "dimes-server" or
// "decaf-server"; component i is prefix-i), or "" when the method
// deploys none.
func (m Method) ServerPrefix() string { return m.traits().serverPrefix }

// Methods returns every coupling method in Figure 2's order.
func Methods() []Method {
	out := make([]Method, 0, len(methodTable)-1)
	for m := Method(1); m.known(); m++ {
		out = append(out, m)
	}
	return out
}

// MethodByName resolves a method from its display name (as printed by
// String, matched case-insensitively).
func MethodByName(name string) (Method, bool) {
	for _, m := range Methods() {
		if strings.EqualFold(m.String(), name) {
			return m, true
		}
	}
	return 0, false
}

// WorkloadKind selects the coupled application pair (Table II).
type WorkloadKind int

// Workloads.
const (
	// WorkloadLAMMPS is LAMMPS + mean squared displacement.
	WorkloadLAMMPS WorkloadKind = iota + 1
	// WorkloadLaplace is the Laplace solver + moment turbulence analysis.
	WorkloadLaplace
	// WorkloadSynthetic is the configurable writer/reader pair.
	WorkloadSynthetic
)

// String returns the workload name.
func (w WorkloadKind) String() string {
	switch w {
	case WorkloadLAMMPS:
		return "LAMMPS+MSD"
	case WorkloadLaplace:
		return "Laplace+MTA"
	case WorkloadSynthetic:
		return "synthetic"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(w))
	}
}

// Workloads returns every workload in Table II's order.
func Workloads() []WorkloadKind {
	return []WorkloadKind{WorkloadLAMMPS, WorkloadLaplace, WorkloadSynthetic}
}

// WorkloadByName resolves a workload from its display name or short
// alias (lammps, laplace, synthetic), case-insensitively.
func WorkloadByName(name string) (WorkloadKind, bool) {
	switch strings.ToLower(name) {
	case "lammps":
		return WorkloadLAMMPS, true
	case "laplace":
		return WorkloadLaplace, true
	}
	for _, w := range Workloads() {
		if strings.EqualFold(w.String(), name) {
			return w, true
		}
	}
	return 0, false
}
