// Package chaos sweeps transient and permanent fault injections across
// coupling methods and mitigations: a campaign is a cartesian product of
// fault kind x intensity x timing x method x mitigation, each cell run
// as N seed-varied deterministic trials on a bounded worker pool. The
// report splits like a prof.Profile: the Deterministic section (survival
// rates, recovery times, throughput-under-fault, survival boundaries) is
// byte-identical across reruns and digest-gated; the Walltime section is
// informational and excluded from every digest.
package chaos

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// FaultKind names one injectable fault family.
type FaultKind string

// The sweepable fault kinds. Crash/degrade/timeout reuse the permanent
// fault plan machinery; loss/busy/opfault are the transient windows.
const (
	FaultCrash   FaultKind = "crash"
	FaultDegrade FaultKind = "degrade"
	FaultTimeout FaultKind = "timeout"
	FaultLoss    FaultKind = "loss"
	FaultBusy    FaultKind = "busy"
	FaultOpFault FaultKind = "opfault"
)

// Kinds lists every fault kind, in report order.
func Kinds() []FaultKind {
	return []FaultKind{FaultCrash, FaultDegrade, FaultTimeout, FaultLoss, FaultBusy, FaultOpFault}
}

// Mitigation names one mitigation configuration under test.
type Mitigation string

// The sweepable mitigations. Replication only binds to DataSpaces
// methods (elsewhere it is a no-op and the cell measures that honestly);
// retry binds everywhere; checkpoint binds to every staged method.
const (
	MitigationNone       Mitigation = "none"
	MitigationRetry      Mitigation = "retry"
	MitigationRepl       Mitigation = "replication"
	MitigationRetryRepl  Mitigation = "retry+replication"
	MitigationCheckpoint Mitigation = "checkpoint"
)

// Campaign describes one chaos sweep.
type Campaign struct {
	// Machine is the machine model (hpc.Titan() / hpc.Cori()).
	Machine hpc.Spec
	// Methods, Faults, Intensities (in [0,1]), Timings (fault onset as a
	// fraction of the method's fault-free end-to-end time) and
	// Mitigations span the swept cells.
	Methods     []workflow.Method
	Faults      []FaultKind
	Intensities []float64
	Timings     []float64
	Mitigations []Mitigation
	// Trials is the number of seed-varied runs per cell (default 3).
	Trials int
	// Seed drives every per-trial fault-plan and jitter seed.
	Seed int64

	// Workload shape (defaults: 8 sim, 4 ana, 2 steps).
	SimProcs, AnaProcs, Steps int
	// Servers / ServersPerNode shape the staging deployment; the default
	// (4 servers, 1 per node) gives replication distinct nodes to live on.
	Servers, ServersPerNode int

	// Workers bounds the worker pool (default 4). Parallelism changes
	// only wall time: every trial is an isolated deterministic engine.
	Workers int

	// Bisect also runs a survival-boundary search per
	// (method, fault, mitigation): the highest intensity at which every
	// trial survives, to a resolution of 2^-BisectSteps (default 5
	// steps), at the first configured timing.
	Bisect      bool
	BisectSteps int

	// StallHorizon arms each trial's no-progress watchdog (virtual
	// seconds; default 200) so a wedged trial becomes a structured
	// failure, not a hung campaign.
	StallHorizon float64
}

func (c Campaign) withDefaults() Campaign {
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.SimProcs <= 0 {
		c.SimProcs = 8
	}
	if c.AnaProcs <= 0 {
		c.AnaProcs = 4
	}
	if c.Steps <= 0 {
		c.Steps = 2
	}
	if c.Servers <= 0 {
		c.Servers = 4
	}
	if c.ServersPerNode <= 0 {
		c.ServersPerNode = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BisectSteps <= 0 {
		c.BisectSteps = 5
	}
	if c.StallHorizon <= 0 {
		c.StallHorizon = 200
	}
	if len(c.Timings) == 0 {
		c.Timings = []float64{0.5}
	}
	return c
}

// Validate rejects campaigns that cannot run.
func (c Campaign) Validate() error {
	if len(c.Methods) == 0 || len(c.Faults) == 0 || len(c.Intensities) == 0 || len(c.Mitigations) == 0 {
		return errors.New("chaos: campaign needs at least one method, fault, intensity and mitigation")
	}
	for _, f := range c.Faults {
		switch f {
		case FaultCrash, FaultDegrade, FaultTimeout, FaultLoss, FaultBusy, FaultOpFault:
		default:
			return fmt.Errorf("chaos: unknown fault kind %q", f)
		}
	}
	for _, m := range c.Mitigations {
		switch m {
		case MitigationNone, MitigationRetry, MitigationRepl, MitigationRetryRepl, MitigationCheckpoint:
		default:
			return fmt.Errorf("chaos: unknown mitigation %q", m)
		}
	}
	for _, x := range c.Intensities {
		if x < 0 || x > 1 {
			return fmt.Errorf("chaos: intensity %v outside [0,1]", x)
		}
	}
	for _, x := range c.Timings {
		if x < 0 || x > 1 {
			return fmt.Errorf("chaos: timing %v outside [0,1]", x)
		}
	}
	return nil
}

// Cell is one swept configuration's aggregated outcome.
type Cell struct {
	Method     string
	Fault      FaultKind
	Intensity  float64
	Timing     float64
	Mitigation Mitigation
	Trials     int
	Survived   int
	// SurvivalRate is Survived/Trials.
	SurvivalRate float64
	// MeanEndToEnd averages the virtual end-to-end time of surviving
	// trials (0 when none survived).
	MeanEndToEnd float64
	// Throughput is baseline end-to-end / MeanEndToEnd: 1.0 means the
	// fault cost nothing, 0.5 means the run took twice as long (0 when
	// nothing survived).
	Throughput float64
	// Recovered counts trials where replication restored the lost copies;
	// MeanRecoveryTime averages their crash-to-restored latency.
	Recovered        int
	MeanRecoveryTime float64
	// FailureClasses lists the distinct failure classes seen, sorted
	// ("message-lost", "node-failure", "retry-exhausted", ...), named by
	// workflow.FailureClass like the FAIL(<class>) cells of the tables.
	FailureClasses []string
}

// Boundary is one survival-boundary bisection outcome.
type Boundary struct {
	Method     string
	Fault      FaultKind
	Mitigation Mitigation
	// Survives is the highest probed intensity at which every trial
	// survived (0 when even the lowest probe failed); Dies is the lowest
	// probed intensity at which some trial failed (1 when none did). The
	// true boundary lies between them, to a resolution of 2^-BisectSteps.
	Survives float64
	Dies     float64
}

// BaselineRun records a method's fault-free reference run.
type BaselineRun struct {
	Method   string
	EndToEnd float64
}

// Deterministic is the digest-gated section of a Report: everything in
// it reruns byte-identically for the same campaign.
type Deterministic struct {
	Seed       int64
	Machine    string
	Trials     int
	Baselines  []BaselineRun
	Cells      []Cell
	Boundaries []Boundary `json:",omitempty"`
}

// Walltime is the informational section: how long the sweep took on the
// host. Excluded from Digest so reruns compare clean.
type Walltime struct {
	Seconds float64
	Workers int
}

// Report is a campaign's full outcome.
type Report struct {
	Deterministic Deterministic
	Walltime      Walltime
}

// Digest hashes the Deterministic section (SHA-256 of its JSON); the
// golden test gates reruns on it.
func (r *Report) Digest() (string, error) {
	js, err := json.Marshal(r.Deterministic)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(js)
	return fmt.Sprintf("%x", sum), nil
}

// EncodeJSON renders the full report (Walltime included) as indented
// JSON. Only the Deterministic section is byte-stable across reruns.
func (r *Report) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// EncodeCSV renders the cells as CSV (deterministic).
func (r *Report) EncodeCSV() []byte {
	var b strings.Builder
	b.WriteString("method,fault,intensity,timing,mitigation,trials,survived,survival_rate,mean_end_to_end_s,throughput,recovered,mean_recovery_s,failure_classes\n")
	for _, c := range r.Deterministic.Cells {
		fmt.Fprintf(&b, "%s,%s,%g,%g,%s,%d,%d,%g,%g,%g,%d,%g,%s\n",
			c.Method, c.Fault, c.Intensity, c.Timing, c.Mitigation,
			c.Trials, c.Survived, c.SurvivalRate, c.MeanEndToEnd, c.Throughput,
			c.Recovered, c.MeanRecoveryTime, strings.Join(c.FailureClasses, ";"))
	}
	return []byte(b.String())
}
