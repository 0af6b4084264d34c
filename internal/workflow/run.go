package workflow

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/imcstudy/imcstudy/internal/dataspaces"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/memprof"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/prof"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/trace"
	"github.com/imcstudy/imcstudy/internal/transport"
)

// DefaultSteps is the number of coupling steps when Config.Steps is 0.
const DefaultSteps = 5

// GPUMode selects the accelerator scenario (Section IV-B).
type GPUMode int

// GPU scenarios.
const (
	// GPUOff is the paper's default: host-resident data.
	GPUOff GPUMode = iota
	// GPUHostStaged keeps data on the device; every put/get pays a PCIe
	// copy because the staging libraries only see host memory.
	GPUHostStaged
	// GPUDirect stages from device memory over an NVLink-class path (the
	// hypothetical future system).
	GPUDirect
)

// String names the mode.
func (g GPUMode) String() string {
	switch g {
	case GPUOff:
		return "cpu"
	case GPUHostStaged:
		return "gpu-host-staged"
	case GPUDirect:
		return "gpu-direct"
	default:
		return fmt.Sprintf("GPUMode(%d)", int(g))
	}
}

// Config describes one workflow run.
type Config struct {
	// Machine is the machine model (hpc.Titan() or hpc.Cori()).
	Machine hpc.Spec
	// Method is the coupling method.
	Method Method
	// Workload selects the application pair.
	Workload WorkloadKind
	// SimProcs and AnaProcs are the processor counts, e.g. (32, 16).
	SimProcs, AnaProcs int
	// Steps is the number of coupling steps (default DefaultSteps).
	Steps int
	// Dense runs real physics with data verification (small scales only).
	Dense bool

	// Workload-size overrides (zero = paper scale).
	LAMMPSAtoms              int
	LaplaceRows, LaplaceCols int
	SyntheticLayout          synthetic.Layout // 0 = mismatch

	// Staging options (zero = the paper's defaults).
	Servers        int
	ServersPerNode int
	TransportMode  transport.Mode
	Hash           dataspaces.HashVersion
	QueueSize      int
	RDMABufBytes   int64
	// SharedNode colocates analytics ranks with simulation ranks
	// (Figure 13's shared-memory mode).
	SharedNode bool

	// GPU selects the accelerator scenario of Section IV-B: GPUOff runs
	// host-resident data; GPUHostStaged keeps the working set on the
	// device and pays D2H/H2D copies around every put/get (what today's
	// libraries force); GPUDirect stages straight from device memory over
	// an NVLink-class path (the paper's future-research direction).
	GPU GPUMode

	// Mitigations (the paper's Table IV suggested resolves).
	//
	// RDMAWaitRetry makes RDMA registrations wait instead of crashing.
	RDMAWaitRetry bool
	// SocketPoolSize caps each endpoint's socket descriptors (0 = off).
	SocketPoolSize int
	// DRCShards distributes the DRC service over several servers (0 = the
	// production single server).
	DRCShards int

	// Trace records per-rank activity spans (compute, put, get) for
	// timeline inspection; see Result.Trace.
	Trace bool

	// Metrics records virtual-clock telemetry (NIC utilization, per-
	// collective MPI traffic, staging-server object/index/memory tracks,
	// activity totals) into Result.Metrics. Off by default: a nil registry
	// makes every instrumentation site a no-op.
	Metrics bool

	// Profile attaches the simulator self-profiler (internal/prof) to
	// the engine: wall-clock time, event counts and allocations are
	// attributed per (component kind, event site) and the run journal
	// lands in Result.Profile. Profiled runs pay measurement overhead
	// in wall time but are virtually (and metrically) bit-identical to
	// unprofiled ones: the profiler observes the event loop, it never
	// schedules into it.
	Profile bool

	// Faults injects a seed-deterministic schedule of node crashes, link
	// degradation windows, message-timeout windows and transient-fault
	// windows (message loss, server-busy rejections, op faults).
	// StagingCrashAt builds the machine failure of Section IV-C.
	Faults *FaultPlan

	// Retry models a client-side retry/backoff policy on staged puts,
	// gets and transport sends (the mitigation knob transient faults are
	// swept against). The zero value disables; a disabled or fault-free
	// run is byte-identical to one with no policy at all, because backoff
	// jitter is only drawn on actual retries.
	Retry retry.Policy

	// StallHorizon arms the engine's no-progress watchdog: a run whose
	// virtual clock advances this far past the last blocked-process
	// wake-up (while some process is still blocked) fails with a
	// structured sim.StallError naming the wedged waits, instead of
	// spinning to the deadline. 0 disables.
	StallHorizon float64

	// Replication stores every staged object on this many staging
	// servers placed on distinct nodes, with failover reads, a modeled
	// heartbeat/lease failure detector and re-replication of lost
	// objects from survivors (DataSpaces methods only; <= 1 disables).
	Replication int
	// CheckpointEvery persists every Nth staged version to Lustre and,
	// when a crash makes staged recovery impossible, degrades the
	// coupling to the file-based path — rolling readers back to the last
	// durable version rather than aborting. 0 disables. Applies to every
	// staged method; MPI-IO is already durable.
	CheckpointEvery int

	// forceFullRates disables the incremental fair-share optimization,
	// rerunning the exact full recomputation on every network change.
	// Test-only: results must be bit-identical either way.
	forceFullRates bool
}

// resilient reports whether any resilience mechanism is enabled.
func (c Config) resilient() bool { return c.Replication > 1 || c.CheckpointEvery > 0 }

// servers returns the staging-server count: Servers when set, else the
// method's default provisioning (0 for a method without servers).
func (c Config) servers() int {
	if c.Servers > 0 {
		return c.Servers
	}
	if f := c.Method.traits().servers; f != nil {
		return f(c.AnaProcs)
	}
	return 0
}

func (c Config) serversPerNode() int {
	if c.ServersPerNode > 0 {
		return c.ServersPerNode
	}
	return 2
}

func (c Config) transport() transport.Mode {
	if c.TransportMode != 0 {
		return c.TransportMode
	}
	return transport.ModeRDMA
}

func (c Config) queueSize() int {
	if c.QueueSize > 0 {
		return c.QueueSize
	}
	return 1
}

func (c Config) steps() int {
	if c.Steps > 0 {
		return c.Steps
	}
	return DefaultSteps
}

// Result is the outcome of one run.
type Result struct {
	Config Config
	// Failed reports a runtime failure (the Table IV classes); FailErr
	// carries it.
	Failed  bool
	FailErr error
	// EndToEnd is the virtual end-to-end time of the workflow.
	EndToEnd sim.Time
	// PutTime / GetTime are the maximum per-rank cumulative staging times.
	PutTime, GetTime sim.Time
	// SimPeakBytes etc. are per-component peak memory (max over ranks).
	SimPeakBytes, AnaPeakBytes, ServerPeakBytes int64
	// ServerTotalBytes sums all server peaks.
	ServerTotalBytes int64
	// Tracker exposes the full memory time-series.
	Tracker *memprof.Tracker
	// DRCRequests/DRCFailures are credential-service counters (Cori).
	DRCRequests, DRCFailures int64
	// Verified is true when a dense run checked every consumed block.
	Verified bool
	// Trace holds the activity timeline when Config.Trace was set.
	Trace *trace.Recorder
	// Metrics holds the telemetry registry when Config.Metrics was set.
	// Its JSON/CSV encodings are byte-identical across runs of the same
	// configuration (the engine is deterministic and the encoders sort).
	Metrics *metrics.Registry
	// Profile holds the simulator self-profile when Config.Profile was
	// set: wall-time/event/allocation attribution per (component kind,
	// event site) plus scheduler-health series. Its Deterministic
	// section encodes byte-identically across runs; its Walltime
	// section is informational and excluded from all digests.
	Profile *prof.Profile

	// Resilience outcomes (zero unless Replication/CheckpointEvery on).
	//
	// Recovered reports that replication re-replicated the crashed
	// node's objects from survivors; RecoveryTime is crash-to-restored
	// (detection latency included); RecoveredBytes is the volume copied.
	Recovered      bool
	RecoveryTime   sim.Time
	RecoveredBytes int64
	// CheckpointWrites/CheckpointBytes is the Lustre traffic of the
	// checkpoint fallback; FallbackReads counts reader fetches served
	// from checkpoints; RolledBackSteps sums how far those reads rolled
	// back past the requested version.
	CheckpointWrites int64
	CheckpointBytes  int64
	FallbackReads    int64
	RolledBackSteps  int64
	// LostRanks counts application ranks whose node death was absorbed
	// (resilient runs only; elsewhere a rank death fails the run).
	LostRanks int
}

// TraceJSON renders the run's timeline as Chrome/Perfetto trace JSON.
// When metrics were also recorded, every registry time-series becomes a
// counter track, so NIC utilization, staging-server footprints and queue
// depths render alongside the activity spans and put->get flow arrows.
// When the run was profiled, two simulator-health tracks are added:
// sim/queue_depth (scheduler event-queue depth) and sim/event_density
// (simulator events executed per virtual second).
//
// The registry's sample slices are handed to the exporter uncopied, and
// the exporter appends every event straight into one buffer. The bytes
// are exactly those the earlier reflective encoder (every event boxed
// into a []any, then json.Marshal) wrote; TestEncodersMatchOracle holds
// both TraceJSON and Metrics.EncodeJSON to their reflective oracles.
func (r *Result) TraceJSON() ([]byte, error) {
	if r.Trace == nil {
		return nil, errors.New("workflow: run had Config.Trace disabled")
	}
	var opts trace.ExportOptions
	for _, name := range r.Metrics.SeriesNames() {
		opts.Counters = append(opts.Counters, trace.CounterTrack{Name: name, Samples: r.Metrics.Series(name).View()})
	}
	opts.Counters = append(opts.Counters, profileCounterTracks(r.Profile)...)
	return r.Trace.ChromeTraceJSONWith(opts)
}

// profileCounterTracks converts the profiler's queue-depth series into
// Perfetto counter tracks: raw depth, plus event density (events per
// virtual second between consecutive samples).
func profileCounterTracks(p *prof.Profile) []trace.CounterTrack {
	if p == nil || len(p.Deterministic.QueueDepth) == 0 {
		return nil
	}
	n := len(p.Deterministic.QueueDepth)
	depth := trace.CounterTrack{Name: "sim/queue_depth", Samples: make([]metrics.Sample, 0, n)}
	density := trace.CounterTrack{Name: "sim/event_density", Samples: make([]metrics.Sample, 0, n)}
	var prevT float64
	var prevEvents int64
	for _, s := range p.Deterministic.QueueDepth {
		depth.Samples = append(depth.Samples, metrics.Sample{T: s.T, V: float64(s.Depth)})
		if dt := s.T - prevT; dt > 0 {
			density.Samples = append(density.Samples, metrics.Sample{
				T: s.T, V: float64(s.Event-prevEvents) / dt,
			})
		}
		prevT, prevEvents = s.T, s.Event
	}
	return []trace.CounterTrack{depth, density}
}

// activity is one span kind of the coupling loop; each has an
// activity/<name>/{seconds,count} counter pair.
type activity int

const (
	actCompute activity = iota
	actPut
	actGet
	actAnalyze
)

var activityNames = [...]string{actCompute: "compute", actPut: "put", actGet: "get", actAnalyze: "analyze"}

// Run executes one workflow configuration. Setup mistakes return an
// error; runtime failures of the modelled systems (out of RDMA memory,
// DRC overload, socket exhaustion, OOM) are captured in Result.Failed.
// A panic anywhere in the run is recovered into a structured
// sim.PanicError, so one pathological configuration cannot take down a
// whole campaign.
func Run(cfg Config) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = sim.RecoveredPanic("workflow.Run", v)
		}
	}()
	return run(cfg)
}

func run(cfg Config) (Result, error) {
	if !cfg.Method.known() {
		return Result{}, fmt.Errorf("workflow: unknown method %v", cfg.Method)
	}
	row := cfg.Method.traits()
	if cfg.SimProcs <= 0 || cfg.AnaProcs <= 0 {
		return Result{}, fmt.Errorf("workflow: procs (%d,%d)", cfg.SimProcs, cfg.AnaProcs)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return Result{}, fmt.Errorf("workflow: %w", err)
	}
	e := sim.NewEngine()
	e.SetStallHorizon(sim.Time(cfg.StallHorizon))
	lay, m, err := place(e, cfg)
	if err != nil {
		return Result{}, err
	}
	m.Net.ForceFullRecompute(cfg.forceFullRates)
	d, err := buildDriver(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg, Tracker: m.Mem}
	if cfg.Trace {
		res.Trace = &trace.Recorder{}
	}
	if cfg.Metrics {
		// Set before buildCoupler so the staging models watch their server
		// NICs and publish their memory from Deploy on.
		res.Metrics = metrics.NewRegistry(e.Now)
		m.Metrics = res.Metrics
		m.WatchNode("sim-0", lay.simNodes[0])
		m.WatchNode("ana-0", lay.anaNodes[0])
		prefixes := []string{"sim-0", "ana-0"}
		if row.serverPrefix != "" {
			prefixes = append(prefixes, row.serverPrefix)
		}
		m.Mem.Publish(res.Metrics, prefixes...)
	}
	m.Retry = retry.New(cfg.Retry, res.Metrics)
	var profiler *prof.Profiler
	if cfg.Profile {
		label := fmt.Sprintf("%s %s %d+%d", cfg.Method, cfg.Machine.Name, cfg.SimProcs, cfg.AnaProcs)
		profiler = prof.New(prof.Options{Label: label})
		e.SetProfiler(profiler)
	}
	reg := res.Metrics
	// span records one activity interval in both outputs; the recorder and
	// registry are nil-safe, so disabled telemetry costs only the calls.
	// Each activity's two counters are resolved on its first span, so an
	// activity that never runs leaves no counters behind.
	var actCounters [len(activityNames)]struct{ seconds, count *metrics.Counter }
	span := func(comp string, act activity, t0, t1 sim.Time, args map[string]string) {
		name := activityNames[act]
		res.Trace.AddSpan(comp, name, t0, t1, args)
		if reg != nil {
			c := &actCounters[act]
			if c.count == nil {
				c.seconds = reg.Counter("activity/" + name + "/seconds")
				c.count = reg.Counter("activity/" + name + "/count")
			}
			c.seconds.Add(t1 - t0)
			c.count.Inc()
		}
	}
	// stepArgs labels a traced span; nil when tracing is off so the hot
	// path allocates nothing.
	stepArgs := func(s int, bytes int64) map[string]string {
		if res.Trace == nil {
			return nil
		}
		a := map[string]string{"step": strconv.Itoa(s)}
		if bytes > 0 {
			a["bytes"] = strconv.FormatInt(bytes, 10)
		}
		return a
	}

	var det *staging.Detector
	if cfg.Replication > 1 {
		det = staging.NewDetector(m, staging.DetectorConfig{})
	}

	c, err := buildCoupler(cfg, m, d, lay, det)
	if err != nil {
		// Deployment failures of the modelled systems (index OOM, policy
		// rejections) are study results, not setup mistakes.
		res.Failed = true
		res.FailErr = err
		return res, nil
	}
	defer c.shutdown()

	devices, err := attachGPUs(cfg, m, lay)
	if err != nil {
		res.Failed = true
		res.FailErr = err
		return res, nil
	}

	pools := FaultPools{Staging: len(lay.stagingNodes), Sim: len(lay.simNodes), Ana: len(lay.anaNodes)}
	if err := cfg.Faults.Validate(pools); err != nil {
		return Result{}, err
	}
	if err := applyFaultPlan(cfg, e, m, lay, det, c); err != nil {
		return Result{}, err
	}

	steps := cfg.steps()
	// readDone throttles writers of server-staged methods: with
	// max_versions=1 a writer must not overwrite a version analytics
	// still reads.
	readDone := staging.NewGate(e, cfg.AnaProcs)
	throttled := row.stages == stageServers

	var putTimes, getTimes []sim.Time
	putTimes = make([]sim.Time, cfg.SimProcs)
	getTimes = make([]sim.Time, cfg.AnaProcs)

	// flowID names the dataflow arrow from writer i's put of step s to the
	// get of the reader covering i; IDs start at 1 (0 is reserved).
	flowID := func(s, i int) uint64 { return uint64(s*cfg.SimProcs+i) + 1 }

	// absorbRankDeath converts a rank's own node crash into a survivable
	// event in resilient runs: the version gates are poisoned so peers
	// unblock with an error (instead of waiting forever for commits that
	// cannot come) and the rank exits cleanly. Any other error — or any
	// rank death in a non-resilient run — still fails the run.
	absorbRankDeath := func(err error, node *hpc.Node) error {
		if err == nil || !cfg.resilient() || !errors.Is(err, hpc.ErrNodeFailed) || !node.Failed() {
			return err
		}
		if gf, ok := c.(gateFailer); ok {
			gf.failGates(err)
		}
		res.LostRanks++
		if reg != nil {
			reg.Counter("resilience/lost_ranks").Inc()
		}
		return nil
	}

	if row.sim {
		for i := 0; i < cfg.SimProcs; i++ {
			i := i
			body := func(p *sim.Proc) error {
				comp := fmt.Sprintf("sim-%d", i)
				if err := m.Alloc(lay.writerNode(i), comp, "compute", d.computeBytes); err != nil {
					return err
				}
				defer m.Free(lay.writerNode(i), comp, "compute", d.computeBytes)
				if err := c.initWriter(p, i); err != nil {
					return err
				}
				for s := 0; s < steps; s++ {
					tc := p.Now()
					if err := m.Compute(p, d.simSeconds(i)); err != nil {
						return err
					}
					span(comp, actCompute, tc, p.Now(), stepArgs(s, 0))
					if !row.couples {
						continue
					}
					if throttled && s > 0 {
						if err := readDone.WaitReady(p, staging.Key{Var: d.varName, Version: s - 1}); err != nil {
							return err
						}
					}
					blk, err := d.makeBlock(i, s)
					if err != nil {
						return err
					}
					t0 := p.Now()
					if err := gpuOut(p, cfg, devices, lay.writerNode(i), blk.Bytes()); err != nil {
						return err
					}
					if err := c.put(p, i, s, blk); err != nil {
						return err
					}
					c.commit(i, s)
					putTimes[i] += p.Now() - t0
					span(comp, actPut, t0, p.Now(), stepArgs(s, blk.Bytes()))
					// The flow start sits at the put's end so Perfetto binds
					// the arrow tail to the put slice.
					res.Trace.FlowStart(flowID(s, i), comp, p.Now())
				}
				return nil
			}
			e.Spawn(fmt.Sprintf("sim-%d", i), func(p *sim.Proc) error {
				return absorbRankDeath(body(p), lay.writerNode(i))
			})
		}
	}

	verified := cfg.Dense
	if row.ana {
		for r := 0; r < cfg.AnaProcs; r++ {
			r := r
			body := func(p *sim.Proc) error {
				if err := c.initReader(p, r); err != nil {
					return err
				}
				comp := fmt.Sprintf("ana-%d", r)
				for s := 0; s < steps; s++ {
					if row.couples {
						t0 := p.Now()
						blk, got, err := c.get(p, r, s)
						if err != nil {
							return err
						}
						if err := gpuIn(p, cfg, devices, lay.readerNode(r), blk.Bytes()); err != nil {
							return err
						}
						getTimes[r] += p.Now() - t0
						span(comp, actGet, t0, p.Now(), stepArgs(s, blk.Bytes()))
						if res.Trace != nil {
							// Close the dataflow arrows from every writer this
							// reader covers (the inverse of readerWriterSpan).
							first, count := readerWriterSpan(cfg.SimProcs, cfg.AnaProcs, r)
							for w := first; w < first+count; w++ {
								res.Trace.FlowEnd(flowID(s, w), comp, p.Now())
							}
						}
						tc := p.Now()
						if err := m.Compute(p, d.anaSeconds(r)); err != nil {
							return err
						}
						span(comp, actAnalyze, tc, p.Now(), stepArgs(s, 0))
						// Verify against the version actually delivered: a
						// rolled-back read consumes an older durable version.
						if err := d.consume(r, got, blk); err != nil {
							return err
						}
						readDone.Commit(staging.Key{Var: d.varName, Version: s})
					} else {
						if err := m.Compute(p, d.anaSeconds(r)); err != nil {
							return err
						}
					}
				}
				return nil
			}
			e.Spawn(fmt.Sprintf("ana-%d", r), func(p *sim.Proc) error {
				err := body(p)
				if err != nil && cfg.resilient() && errors.Is(err, hpc.ErrNodeFailed) && lay.readerNode(r).Failed() {
					// Release the writer throttle this dead reader would have
					// driven, then absorb the death.
					for s := 0; s < steps; s++ {
						readDone.Commit(staging.Key{Var: d.varName, Version: s})
					}
				}
				return absorbRankDeath(err, lay.readerNode(r))
			})
		}
	}

	runErr := e.Run()
	res.EndToEnd = e.Now()
	if runErr != nil {
		res.Failed = true
		res.FailErr = runErr
		verified = false
	}
	for _, t := range putTimes {
		if t > res.PutTime {
			res.PutTime = t
		}
	}
	for _, t := range getTimes {
		if t > res.GetTime {
			res.GetTime = t
		}
	}
	res.SimPeakBytes = m.Mem.MaxPeakMatching("sim-")
	res.AnaPeakBytes = m.Mem.MaxPeakMatching("ana-")
	if row.serverPrefix != "" {
		res.ServerPeakBytes = m.Mem.MaxPeakMatching(row.serverPrefix)
		res.ServerTotalBytes = m.Mem.PeakMatching(row.serverPrefix)
	}
	if m.DRC != nil {
		res.DRCRequests = m.DRC.Requests()
		res.DRCFailures = m.DRC.Failures()
	}
	if rr, ok := c.(resilienceReporter); ok {
		o := rr.resilienceOutcome()
		res.Recovered = o.Recovered
		res.RecoveryTime = o.RecoveryTime
		res.RecoveredBytes = o.ReRepBytes
		res.CheckpointWrites = o.CkptWrites
		res.CheckpointBytes = o.CkptBytes
		res.FallbackReads = o.FallbackReads
		res.RolledBackSteps = o.RolledBackSteps
	}
	finalizeMetrics(&res, m)
	res.Profile = profiler.Snapshot()
	res.Verified = verified && row.couples
	return res, nil
}

// finalizeMetrics folds end-of-run machine state into the registry:
// per-link traffic and mean utilization, contended-resource wait stats
// and DRC counters. The NIC and memory tracks were recorded as they
// changed, so the metrics report is the single source of truth for the
// paper's bandwidth and memory figures.
func finalizeMetrics(res *Result, m *hpc.Machine) {
	reg := res.Metrics
	if reg == nil {
		return
	}
	elapsed := res.EndToEnd
	for _, l := range m.Net.Links() {
		if l.BytesMoved() == 0 {
			continue
		}
		reg.Counter("net/" + l.Name() + "/bytes").Add(l.BytesMoved())
		if elapsed > 0 && l.Rate() > 0 {
			reg.Gauge("net/" + l.Name() + "/mean_util").Set(l.BytesMoved() / (l.Rate() * elapsed))
		}
	}
	for _, n := range m.Nodes {
		for _, r := range []*sim.Resource{n.Mem, n.Socks} {
			if r.Waits() == 0 {
				continue
			}
			reg.Counter("resource/" + r.Name() + "/waits").Add(float64(r.Waits()))
			reg.Counter("resource/" + r.Name() + "/wait_s").Add(r.WaitTime())
			reg.Gauge("resource/" + r.Name() + "/peak_queue").Set(float64(r.PeakQueue()))
		}
	}
	if m.DRC != nil {
		reg.Counter("drc/requests").Add(float64(m.DRC.Requests()))
		reg.Counter("drc/failures").Add(float64(m.DRC.Failures()))
	}
}

// place builds the machine and the role-to-node layout.
func place(e *sim.Engine, cfg Config) (*layout, *hpc.Machine, error) {
	rpn := cfg.Machine.CoresPerNode
	simNodes := ceilDiv(cfg.SimProcs, rpn)
	anaNodes := ceilDiv(cfg.AnaProcs, rpn)
	row := cfg.Method.traits()
	hasServers := row.stages == stageServers
	serverNodes := 0
	spn := cfg.serversPerNode()
	if hasServers {
		if cfg.SharedNode {
			// Shared mode colocates the staging servers with the simulation
			// nodes, spreading them as thinly as possible.
			spn = ceilDiv(cfg.servers(), simNodes)
			if spn < 1 {
				spn = 1
			}
		} else {
			serverNodes = ceilDiv(cfg.servers(), spn)
		}
	}
	total := simNodes + serverNodes
	if !cfg.SharedNode {
		total += anaNodes
	} else if anaNodes > simNodes {
		return nil, nil, fmt.Errorf("workflow: shared mode needs analytics to fit on simulation nodes")
	}
	spec := cfg.Machine
	if cfg.DRCShards > 0 && spec.DRC != nil {
		drc := *spec.DRC
		drc.Shards = cfg.DRCShards
		spec.DRC = &drc
	}
	m, err := hpc.New(e, spec, total)
	if err != nil {
		return nil, nil, err
	}
	lay := &layout{serversPerNode: spn}
	lay.simNodes = m.Nodes[:simNodes]
	next := simNodes
	if cfg.SharedNode {
		lay.anaNodes = m.Nodes[:anaNodes]
		if hasServers {
			lay.serverNodes = lay.simNodes
		}
	} else {
		lay.anaNodes = m.Nodes[next : next+anaNodes]
		next += anaNodes
		lay.serverNodes = m.Nodes[next : next+serverNodes]
	}
	switch row.stages {
	case stageServers:
		lay.stagingNodes = lay.serverNodes
	case stageWriters:
		lay.stagingNodes = lay.simNodes
	}

	// Enforce the machine's job-per-node policy (Finding 5).
	if _, err := m.PlaceJob("sim", 0, simNodes); err != nil {
		return nil, nil, err
	}
	if cfg.SharedNode {
		if _, err := m.PlaceJob("analytics", 0, anaNodes); err != nil {
			return nil, nil, err
		}
		if hasServers {
			if _, err := m.PlaceJob("staging", 0, simNodes); err != nil {
				return nil, nil, err
			}
		}
	} else {
		if _, err := m.PlaceJob("analytics", simNodes, anaNodes); err != nil {
			return nil, nil, err
		}
		if serverNodes > 0 {
			if _, err := m.PlaceJob("staging", next, serverNodes); err != nil {
				return nil, nil, err
			}
		}
	}
	lay.writerNode = func(i int) *hpc.Node { return lay.simNodes[i/rpn] }
	lay.readerNode = func(r int) *hpc.Node {
		if cfg.SharedNode {
			// Pair analytics with the simulation ranks they consume.
			first, _ := readerWriterSpan(cfg.SimProcs, cfg.AnaProcs, r)
			return lay.simNodes[first/rpn]
		}
		return lay.anaNodes[r/rpn]
	}
	return lay, m, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
