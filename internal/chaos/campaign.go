package chaos

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// trial is one fully-resolved run request.
type trial struct {
	method     workflow.Method
	fault      FaultKind
	intensity  float64
	timing     float64
	mitigation Mitigation
	index      int // trial number within the cell
	baseline   float64
	seed       int64
}

// outcome is one trial's result.
type outcome struct {
	survived     bool
	endToEnd     float64
	recovered    bool
	recoveryTime float64
	failClass    string
}

// Run executes the campaign: fault-free baselines per method, then every
// cell's trials on a bounded worker pool, then (optionally) the
// survival-boundary bisections. Every trial is an isolated deterministic
// engine whose seeds derive from (campaign seed, cell, trial), so the
// Deterministic report section is byte-identical across reruns at any
// worker count.
func (c Campaign) Run() (*Report, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	//imclint:deterministic -- campaign wall time is reported in the Walltime section, which every digest excludes
	start := time.Now()

	baselines := make([]BaselineRun, len(c.Methods))
	for i, m := range c.Methods {
		res, err := workflow.Run(c.baseConfig(m))
		if err != nil {
			return nil, fmt.Errorf("chaos: baseline %s: %w", m, err)
		}
		if res.Failed {
			return nil, fmt.Errorf("chaos: fault-free baseline %s failed: %w", m, res.FailErr)
		}
		baselines[i] = BaselineRun{Method: m.String(), EndToEnd: float64(res.EndToEnd)}
	}
	baselineOf := func(m workflow.Method) float64 {
		for i, bm := range c.Methods {
			if bm == m {
				return baselines[i].EndToEnd
			}
		}
		return 0
	}

	// Build the full trial list up front; results land by index, so the
	// pool's completion order cannot reorder the report.
	var trials []trial
	cell := 0
	for _, m := range c.Methods {
		for _, f := range c.Faults {
			for _, in := range c.Intensities {
				for _, tm := range c.Timings {
					for _, mit := range c.Mitigations {
						for k := 0; k < c.Trials; k++ {
							trials = append(trials, trial{
								method: m, fault: f, intensity: in, timing: tm,
								mitigation: mit, index: k, baseline: baselineOf(m),
								seed: trialSeed(c.Seed, cell, k),
							})
						}
						cell++
					}
				}
			}
		}
	}
	outcomes := c.runPool(trials)

	rep := &Report{Deterministic: Deterministic{
		Seed: c.Seed, Machine: c.Machine.Name, Trials: c.Trials, Baselines: baselines,
	}}
	for i := 0; i < len(trials); i += c.Trials {
		rep.Deterministic.Cells = append(rep.Deterministic.Cells,
			aggregate(trials[i], outcomes[i:i+c.Trials]))
	}

	if c.Bisect {
		rep.Deterministic.Boundaries = c.bisectAll(baselineOf)
	}

	//imclint:deterministic -- same wall-time bookkeeping as above
	rep.Walltime = Walltime{Seconds: time.Since(start).Seconds(), Workers: c.Workers}
	return rep, nil
}

// trialSeed derives a trial's seed from its coordinates alone.
func trialSeed(seed int64, cell, k int) int64 {
	return seed ^ (int64(cell+1) * 0x9e3779b9) ^ (int64(k+1) * 0x1e35a7bd)
}

// runPool executes the trials on the bounded worker pool.
func (c Campaign) runPool(trials []trial) []outcome {
	outcomes := make([]outcome, len(trials))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outcomes[i] = c.runTrial(trials[i])
			}
		}()
	}
	for i := range trials {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return outcomes
}

// runTrial runs one trial; any panic escaping workflow.Run's own
// recovery is converted to a failed outcome, not a dead campaign.
func (c Campaign) runTrial(t trial) (out outcome) {
	defer func() {
		if v := recover(); v != nil {
			err := sim.RecoveredPanic(fmt.Sprintf("chaos trial %s/%s", t.method, t.fault), v)
			out = outcome{failClass: workflow.FailureClass(err)}
		}
	}()
	res, err := workflow.Run(c.trialConfig(t))
	if err != nil {
		return outcome{failClass: workflow.FailureClass(err)}
	}
	if res.Failed {
		return outcome{
			recovered:    res.Recovered,
			recoveryTime: float64(res.RecoveryTime),
			failClass:    workflow.FailureClass(res.FailErr),
		}
	}
	return outcome{
		survived:     true,
		endToEnd:     float64(res.EndToEnd),
		recovered:    res.Recovered,
		recoveryTime: float64(res.RecoveryTime),
	}
}

// baseConfig is the method's fault-free, mitigation-free reference.
func (c Campaign) baseConfig(m workflow.Method) workflow.Config {
	return workflow.Config{
		Machine:        c.Machine,
		Method:         m,
		Workload:       workflow.WorkloadSynthetic,
		SimProcs:       c.SimProcs,
		AnaProcs:       c.AnaProcs,
		Steps:          c.Steps,
		Servers:        c.Servers,
		ServersPerNode: c.ServersPerNode,
		StallHorizon:   c.StallHorizon,
	}
}

// trialConfig resolves a trial into a workflow configuration: the fault
// kind and intensity become a fault plan anchored at timing x baseline,
// and the mitigation becomes the matching config knobs.
func (c Campaign) trialConfig(t trial) workflow.Config {
	cfg := c.baseConfig(t.method)
	at := t.timing * t.baseline
	// Fault windows stay open for the rest of the run: survival under a
	// window that outlives the workflow is the conservative question.
	duration := 10 * (t.baseline + 1)
	plan := &workflow.FaultPlan{Seed: t.seed}
	w := workflow.TransientWindow{
		Role: workflow.RoleStaging, Index: 0, At: at, Duration: duration, Prob: t.intensity,
	}
	switch t.fault {
	case FaultCrash:
		// Intensity scales how many staging nodes die: one at low
		// intensity, up to three at full.
		n := 1 + int(t.intensity*2+0.5)
		for i := 0; i < n; i++ {
			plan.Crashes = append(plan.Crashes, workflow.NodeCrash{
				Role: workflow.RoleStaging, Index: i, At: at + 0.05*float64(i),
			})
		}
	case FaultDegrade:
		factor := 1 - t.intensity
		if factor <= 0 {
			factor = 0.01
		}
		plan.Degradations = []workflow.LinkDegradation{{
			Role: workflow.RoleStaging, Index: 0, At: at, Duration: duration, Factor: factor,
		}}
	case FaultTimeout:
		plan.Timeouts = []workflow.TimeoutWindow{{
			Role: workflow.RoleStaging, Index: 0, At: at, Duration: duration,
			Extra: 0.01 * t.intensity,
		}}
	case FaultLoss:
		plan.MessageLoss = []workflow.TransientWindow{w}
	case FaultBusy:
		plan.ServerBusy = []workflow.TransientWindow{w}
	case FaultOpFault:
		plan.OpFaults = []workflow.TransientWindow{w}
	}
	cfg.Faults = plan

	switch t.mitigation {
	case MitigationRetry:
		cfg.Retry = c.retryPolicy(t.seed)
	case MitigationRepl:
		cfg.Replication = 2
	case MitigationRetryRepl:
		cfg.Retry = c.retryPolicy(t.seed)
		cfg.Replication = 2
	case MitigationCheckpoint:
		cfg.CheckpointEvery = 1
	}
	return cfg
}

// retryPolicy is the campaign's modeled client retry/backoff stance.
func (c Campaign) retryPolicy(seed int64) retry.Policy {
	return retry.Policy{
		MaxAttempts: 8,
		BaseBackoff: 0.001,
		Multiplier:  2,
		MaxBackoff:  0.05,
		Jitter:      0.3,
		Seed:        seed ^ 0x5ca1ab1e,
	}
}

// aggregate folds a cell's trial outcomes into its report row.
func aggregate(t trial, outs []outcome) Cell {
	cell := Cell{
		Method: t.method.String(), Fault: t.fault, Intensity: t.intensity,
		Timing: t.timing, Mitigation: t.mitigation, Trials: len(outs),
	}
	var sumE2E, sumRec float64
	classes := make([]string, 0, 2)
	for _, o := range outs {
		if o.survived {
			cell.Survived++
			sumE2E += o.endToEnd
		} else if o.failClass != "" && !slices.Contains(classes, o.failClass) {
			classes = append(classes, o.failClass)
		}
		if o.recovered {
			cell.Recovered++
			sumRec += o.recoveryTime
		}
	}
	cell.SurvivalRate = float64(cell.Survived) / float64(len(outs))
	if cell.Survived > 0 {
		cell.MeanEndToEnd = sumE2E / float64(cell.Survived)
		if cell.MeanEndToEnd > 0 {
			cell.Throughput = t.baseline / cell.MeanEndToEnd
		}
	}
	if cell.Recovered > 0 {
		cell.MeanRecoveryTime = sumRec / float64(cell.Recovered)
	}
	sort.Strings(classes)
	cell.FailureClasses = classes
	return cell
}

// bisectAll runs the survival-boundary search for every
// (method, fault, mitigation) on the worker pool.
func (c Campaign) bisectAll(baselineOf func(workflow.Method) float64) []Boundary {
	type combo struct {
		method workflow.Method
		fault  FaultKind
		mit    Mitigation
	}
	var combos []combo
	for _, m := range c.Methods {
		for _, f := range c.Faults {
			for _, mit := range c.Mitigations {
				combos = append(combos, combo{m, f, mit})
			}
		}
	}
	bounds := make([]Boundary, len(combos))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cb := combos[i]
				bounds[i] = c.bisect(cb.method, cb.fault, cb.mit, baselineOf(cb.method))
			}
		}()
	}
	for i := range combos {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return bounds
}

// bisect binary-searches the survival boundary on intensity in [0,1]
// at the first configured timing: every probe runs the cell's full
// trial count and survives only if all trials do. Probe seeds derive
// from the intensity so reruns reproduce exactly.
func (c Campaign) bisect(m workflow.Method, f FaultKind, mit Mitigation, baseline float64) Boundary {
	timing := c.Timings[0]
	probe := func(intensity float64) bool {
		for k := 0; k < c.Trials; k++ {
			t := trial{
				method: m, fault: f, intensity: intensity, timing: timing,
				mitigation: mit, index: k, baseline: baseline,
				seed: trialSeed(c.Seed, int(intensity*1e6)+7, k),
			}
			if !c.runTrial(t).survived {
				return false
			}
		}
		return true
	}
	b := Boundary{Method: m.String(), Fault: f, Mitigation: mit}
	lo, hi := 0.0, 1.0
	if probe(1) {
		b.Survives, b.Dies = 1, 1
		return b
	}
	if !probe(0) {
		b.Survives, b.Dies = 0, 0
		return b
	}
	for i := 0; i < c.BisectSteps; i++ {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	b.Survives, b.Dies = lo, hi
	return b
}

// SmokeCampaign is the tiny CI campaign: 2 methods x 2 faults x 2
// intensities x 2 mitigations x 2 trials plus a 3-step bisection —
// seconds of wall time, every moving part exercised.
func SmokeCampaign() Campaign {
	return Campaign{
		Machine:     hpc.Titan(),
		Methods:     []workflow.Method{workflow.MethodDataSpacesNative, workflow.MethodFlexpath},
		Faults:      []FaultKind{FaultCrash, FaultLoss},
		Intensities: []float64{0.25, 0.75},
		Timings:     []float64{0.5},
		Mitigations: []Mitigation{MitigationNone, MitigationRetryRepl},
		Trials:      2,
		Seed:        42,
		SimProcs:    8,
		AnaProcs:    4,
		Steps:       2,
		Bisect:      true,
		BisectSteps: 3,
	}
}
