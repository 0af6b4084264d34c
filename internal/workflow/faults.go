package workflow

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
)

// FaultRole names the node pool a fault targets.
type FaultRole string

// Fault target roles.
const (
	// RoleStaging targets the method's staging nodes: server nodes for
	// DataSpaces/DIMES/Decaf, simulation nodes for Flexpath (writer-side
	// staging). MPI-IO has no staging node; targeting it is a no-op.
	RoleStaging FaultRole = "staging"
	// RoleSim targets simulation nodes.
	RoleSim FaultRole = "sim"
	// RoleAna targets analytics nodes.
	RoleAna FaultRole = "ana"
)

// NodeCrash fails one node abruptly at a virtual time (the machine
// failures of Section IV-C).
type NodeCrash struct {
	Role  FaultRole
	Index int
	At    sim.Time
}

// LinkDegradation throttles a node's NIC to Factor of its capacity
// during [At, At+Duration) — a congested or flapping path.
type LinkDegradation struct {
	Role     FaultRole
	Index    int
	At       sim.Time
	Duration sim.Time
	// Factor is the remaining fraction of NIC capacity (0.1 = 10%).
	Factor float64
}

// TimeoutWindow charges Extra seconds of latency on every message
// touching a node during [At, At+Duration) — RPC retries on a flaky
// path.
type TimeoutWindow struct {
	Role     FaultRole
	Index    int
	At       sim.Time
	Duration sim.Time
	Extra    sim.Time
}

// TransientWindow schedules a probabilistic transient fault on one node
// during [At, At+Duration): every exposed operation draws independently
// against Prob from a per-window PRNG seeded off the plan seed, so the
// same plan reproduces the same faults. The window's meaning depends on
// which plan list it sits in: message loss, server-busy rejection, or
// transient op failure.
type TransientWindow struct {
	Role     FaultRole
	Index    int
	At       sim.Time
	Duration sim.Time
	// Prob is the per-operation fault probability in [0, 1].
	Prob float64
}

// FaultPlan is a seed-deterministic schedule of injected faults. The
// same plan against the same Config reproduces the same run to the
// byte: the engine is deterministic and the random crashes are expanded
// with a seeded PRNG before the clock starts.
type FaultPlan struct {
	// Seed drives the expansion of RandomCrashes (0 is a valid seed).
	Seed int64
	// RandomCrashes adds this many staging-node crashes at seed-chosen
	// times in (0, RandomCrashHorizon].
	RandomCrashes int
	// RandomCrashHorizon bounds random crash times (default 10 virtual
	// seconds).
	RandomCrashHorizon sim.Time

	Crashes      []NodeCrash
	Degradations []LinkDegradation
	Timeouts     []TimeoutWindow

	// MessageLoss windows drop inter-node messages with probability Prob
	// per message end (sender or receiver inside a window draws).
	MessageLoss []TransientWindow
	// ServerBusy windows make a staging store reject Put admissions with
	// probability Prob — back-pressure from an overloaded server.
	ServerBusy []TransientWindow
	// OpFaults windows make staging store puts and queries fail
	// transiently with probability Prob.
	OpFaults []TransientWindow
}

// StagingCrashAt returns the machine failure of Section IV-C as a plan:
// at virtual time t the method's first staging node crashes — a server
// node for DataSpaces/DIMES/Decaf, a simulation node for Flexpath (whose
// staging is writer-side). MPI-IO has no staging node; its data is
// already on the filesystem. Add further faults to the returned plan to
// compose them with the crash.
func StagingCrashAt(t sim.Time) *FaultPlan {
	return &FaultPlan{Crashes: []NodeCrash{{Role: RoleStaging, Index: 0, At: t}}}
}

// Empty reports whether the plan injects nothing.
func (fp *FaultPlan) Empty() bool {
	return fp == nil || (fp.RandomCrashes == 0 && len(fp.Crashes) == 0 &&
		len(fp.Degradations) == 0 && len(fp.Timeouts) == 0 &&
		len(fp.MessageLoss) == 0 && len(fp.ServerBusy) == 0 && len(fp.OpFaults) == 0)
}

// FaultPools gives Validate the per-role node-pool sizes of a placed
// run. A zero pool means the role is absent for the method (faults
// targeting it are skipped, so any index is accepted).
type FaultPools struct {
	Staging, Sim, Ana int
}

// Validate rejects plans that are malformed regardless of expansion
// outcome: negative times, durations or budgets, factors and
// probabilities outside their domain, and targets outside the placed
// node pools. Run calls it after placement so a bad plan fails loudly
// up front instead of silently misfiring mid-run.
func (fp *FaultPlan) Validate(pools FaultPools) error {
	if fp == nil {
		return nil
	}
	if fp.RandomCrashes < 0 {
		return fmt.Errorf("workflow: fault plan: RandomCrashes %d < 0", fp.RandomCrashes)
	}
	if fp.RandomCrashHorizon < 0 {
		return fmt.Errorf("workflow: fault plan: RandomCrashHorizon %v < 0", fp.RandomCrashHorizon)
	}
	target := func(kind string, i int, role FaultRole, index int, at, duration sim.Time) error {
		var pool int
		switch role {
		case RoleStaging:
			pool = pools.Staging
		case RoleSim:
			pool = pools.Sim
		case RoleAna:
			pool = pools.Ana
		default:
			return fmt.Errorf("workflow: fault plan: %s[%d]: unknown role %q", kind, i, role)
		}
		if index < 0 || (pool > 0 && index >= pool) {
			return fmt.Errorf("workflow: fault plan: %s[%d]: index %d out of range (%d %s nodes)",
				kind, i, index, pool, role)
		}
		if at < 0 {
			return fmt.Errorf("workflow: fault plan: %s[%d]: At %v < 0", kind, i, at)
		}
		if duration < 0 {
			return fmt.Errorf("workflow: fault plan: %s[%d]: Duration %v < 0", kind, i, duration)
		}
		return nil
	}
	for i, cr := range fp.Crashes {
		if err := target("Crashes", i, cr.Role, cr.Index, cr.At, 0); err != nil {
			return err
		}
	}
	for i, dg := range fp.Degradations {
		if err := target("Degradations", i, dg.Role, dg.Index, dg.At, dg.Duration); err != nil {
			return err
		}
		if dg.Factor <= 0 || dg.Factor > 1 {
			return fmt.Errorf("workflow: fault plan: Degradations[%d]: Factor %v outside (0,1]", i, dg.Factor)
		}
	}
	for i, tw := range fp.Timeouts {
		if err := target("Timeouts", i, tw.Role, tw.Index, tw.At, tw.Duration); err != nil {
			return err
		}
		if tw.Extra < 0 {
			return fmt.Errorf("workflow: fault plan: Timeouts[%d]: Extra %v < 0", i, tw.Extra)
		}
	}
	for _, list := range []struct {
		kind string
		ws   []TransientWindow
	}{
		{"MessageLoss", fp.MessageLoss},
		{"ServerBusy", fp.ServerBusy},
		{"OpFaults", fp.OpFaults},
	} {
		for i, w := range list.ws {
			if err := target(list.kind, i, w.Role, w.Index, w.At, w.Duration); err != nil {
				return err
			}
			if w.Prob < 0 || w.Prob > 1 {
				return fmt.Errorf("workflow: fault plan: %s[%d]: Prob %v outside [0,1]", list.kind, i, w.Prob)
			}
		}
	}
	return nil
}

// expandCrashes resolves the plan's crash list: explicit crashes plus
// the seed-expanded random ones, sorted by time for a stable injection
// order.
func (fp *FaultPlan) expandCrashes(stagingNodes int) []NodeCrash {
	crashes := append([]NodeCrash(nil), fp.Crashes...)
	if fp.RandomCrashes > 0 && stagingNodes > 0 {
		horizon := fp.RandomCrashHorizon
		if horizon <= 0 {
			horizon = 10
		}
		rng := rand.New(rand.NewSource(fp.Seed))
		for i := 0; i < fp.RandomCrashes; i++ {
			crashes = append(crashes, NodeCrash{
				Role:  RoleStaging,
				Index: rng.Intn(stagingNodes),
				At:    sim.Time(rng.Float64()) * horizon,
			})
		}
	}
	sort.SliceStable(crashes, func(a, b int) bool { return crashes[a].At < crashes[b].At })
	return crashes
}

// faultNode resolves a (role, index) target against the placement.
// A nil node with nil error means the role has no such node for this
// method (e.g. RoleStaging under MPI-IO) and the fault is skipped.
func faultNode(lay *layout, role FaultRole, index int) (*hpc.Node, error) {
	pool := func(nodes []*hpc.Node) (*hpc.Node, error) {
		if len(nodes) == 0 {
			return nil, nil
		}
		if index < 0 || index >= len(nodes) {
			return nil, fmt.Errorf("workflow: fault %s[%d] out of range (%d nodes)", role, index, len(nodes))
		}
		return nodes[index], nil
	}
	switch role {
	case RoleStaging:
		return pool(lay.stagingNodes)
	case RoleSim:
		return pool(lay.simNodes)
	case RoleAna:
		return pool(lay.anaNodes)
	default:
		return nil, fmt.Errorf("workflow: unknown fault role %q", role)
	}
}

// applyFaultPlan schedules every fault of the plan on the engine.
// Crashes are timestamped (FailAt) and reported to the failure detector
// so detection latency is modeled; degradations retune NIC link rates
// for their window; timeout windows attach to the node directly.
func applyFaultPlan(cfg Config, e *sim.Engine, m *hpc.Machine, lay *layout, det *staging.Detector, c coupler) error {
	plan := cfg.Faults
	if plan.Empty() {
		return nil
	}
	reg := m.Metrics
	for _, cr := range plan.expandCrashes(len(lay.stagingNodes)) {
		node, err := faultNode(lay, cr.Role, cr.Index)
		if err != nil {
			return err
		}
		if node == nil {
			continue
		}
		node, at, role := node, cr.At, cr.Role
		e.At(at, func() {
			if node.Failed() {
				return
			}
			node.FailAt(at)
			if reg != nil {
				reg.Counter("faults/crashes").Inc()
			}
			if det != nil {
				det.ObserveFailure(node)
			}
			if role == RoleSim {
				// Producers died with the node: poison the version gates so
				// readers are released with an error instead of waiting for
				// commits that can never come.
				if gf, ok := c.(gateFailer); ok {
					gf.failGates(fmt.Errorf("%s crashed at t=%.3f: %w", node.Name(), at, hpc.ErrNodeFailed))
				}
			}
		})
	}
	// Degradation windows on the same node compose multiplicatively: the
	// effective rate is base x product(open factors), recomputed at every
	// window edge. Restoring a captured pre-window rate instead would
	// strand overlapping windows at full capacity the moment the first
	// one closes, and a window that opens and closes at the same
	// timestamp nets out to the base rate exactly.
	degraded := make(map[*hpc.Node]*nodeDegradation)
	for _, dg := range plan.Degradations {
		node, err := faultNode(lay, dg.Role, dg.Index)
		if err != nil {
			return err
		}
		if node == nil || dg.Duration < 0 {
			continue
		}
		factor := dg.Factor
		if factor < 0 {
			factor = 0
		}
		st, ok := degraded[node]
		if !ok {
			st = &nodeDegradation{
				in: node.In(), out: node.Out(),
				inBase: node.In().Rate(), outBase: node.Out().Rate(),
			}
			degraded[node] = st
		}
		e.At(dg.At, func() {
			st.factors = append(st.factors, factor)
			st.apply(m.Net)
			if reg != nil {
				reg.Counter("faults/degradations").Inc()
			}
		})
		e.At(dg.At+dg.Duration, func() {
			st.drop(factor)
			st.apply(m.Net)
		})
	}
	for _, tw := range plan.Timeouts {
		node, err := faultNode(lay, tw.Role, tw.Index)
		if err != nil {
			return err
		}
		if node == nil || tw.Duration <= 0 {
			continue
		}
		node.AddTimeoutWindow(tw.At, tw.At+tw.Duration, tw.Extra)
		if reg != nil {
			reg.Counter("faults/timeout_windows").Inc()
		}
	}
	// Transient windows: each gets its own PRNG seeded off the plan seed,
	// a per-kind offset, and its list position, so the draw streams are
	// independent of each other and stable across runs.
	for _, list := range []struct {
		kind    string
		offset  int64
		install func(n *hpc.Node, from, until sim.Time, prob float64, seed int64)
		ws      []TransientWindow
	}{
		{"loss_windows", 0x1e35, (*hpc.Node).AddLossWindow, plan.MessageLoss},
		{"busy_windows", 0x9e37, (*hpc.Node).AddBusyWindow, plan.ServerBusy},
		{"opfault_windows", 0x5bd1, (*hpc.Node).AddOpFaultWindow, plan.OpFaults},
	} {
		for i, w := range list.ws {
			node, err := faultNode(lay, w.Role, w.Index)
			if err != nil {
				return err
			}
			if node == nil || w.Duration <= 0 || w.Prob <= 0 {
				continue
			}
			seed := plan.Seed ^ (list.offset << 16) ^ int64(i+1)
			list.install(node, w.At, w.At+w.Duration, w.Prob, seed)
			if reg != nil {
				reg.Counter("faults/" + list.kind).Inc()
			}
		}
	}
	return nil
}

// nodeDegradation tracks the open link-degradation windows of one node.
type nodeDegradation struct {
	in, out         *sim.Link
	inBase, outBase float64
	factors         []float64
}

// apply retunes the node's NICs to base x product(open factors).
func (st *nodeDegradation) apply(net *sim.Net) {
	f := 1.0
	for _, x := range st.factors {
		f *= x
	}
	net.SetLinkRate(st.in, st.inBase*f)
	net.SetLinkRate(st.out, st.outBase*f)
}

// drop removes one open window with the given factor.
func (st *nodeDegradation) drop(factor float64) {
	for i, x := range st.factors {
		if x == factor {
			st.factors = append(st.factors[:i], st.factors[i+1:]...)
			return
		}
	}
}

// gateFailer is implemented by couplers whose version gates can be
// poisoned when producers die before committing.
type gateFailer interface {
	failGates(cause error)
}
