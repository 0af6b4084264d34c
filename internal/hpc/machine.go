// Package hpc models the two supercomputers of the study — Titan (Cray
// Gemini, 3D torus) and Cori KNL (Cray Aries, dragonfly) — as collections
// of nodes with bounded NIC injection bandwidth, main memory, RDMA
// resources, socket descriptors, a Lustre filesystem and (on Cori) a DRC
// credential service. All timing in the testbed derives from these
// models.
package hpc

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/imcstudy/imcstudy/internal/lustre"
	"github.com/imcstudy/imcstudy/internal/memprof"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// ErrOutOfNodeMemory reports main-memory exhaustion on a node (Table IV,
// "out of main memory").
var ErrOutOfNodeMemory = errors.New("hpc: out of node memory")

// ErrNodeFailed reports communication with a failed node (the machine
// failures Section IV-C notes no staging library tolerates).
var ErrNodeFailed = errors.New("hpc: node failed")

// transientErr is a sentinel whose failures are retryable: retry.Transient
// classifies by this marker instead of maintaining an error list, so a new
// transient fault kind needs no registration anywhere.
type transientErr string

func (e transientErr) Error() string { return string(e) }

// Transient marks the failure as retryable under a retry.Policy.
func (e transientErr) Transient() bool { return true }

// ErrMessageLost reports an injected fabric loss: the message left the
// sender but never arrived (a flaky link dropping packets).
var ErrMessageLost error = transientErr("hpc: message lost in fabric (injected fault)")

// ErrServerBusy reports injected staging back-pressure: the server
// rejected the request instead of admitting it (overload shedding).
var ErrServerBusy error = transientErr("hpc: staging server busy (injected back-pressure)")

// ErrTransientOp reports an injected transient put/get failure — the
// operation failed once but may succeed when re-issued.
var ErrTransientOp error = transientErr("hpc: transient staging operation fault (injected)")

// Spec describes one machine. All bandwidths are bytes per second; all
// compute costs elsewhere in the testbed are expressed in Titan-seconds
// and divided by CPUSpeed.
type Spec struct {
	Name string
	// MaxNodes is the full machine's node count; an allocation asking for
	// more nodes than the machine has is a setup error. 0 means unbounded
	// (synthetic machines in tests).
	MaxNodes     int
	CoresPerNode int
	// CPUSpeed is the per-core speed relative to Titan's 2.2 GHz Opteron
	// (Cori KNL: 1.4/2.2 = 0.636, the ratio the paper quotes).
	CPUSpeed     float64
	NodeMemBytes int64

	// Interconnect.
	NICBytesPerSec float64
	NICLatency     sim.Time
	// MemBusBytesPerSec bounds intra-node (shared-memory) copies.
	MemBusBytesPerSec float64

	// RDMA resources per node.
	RDMAMemBytes   int64
	RDMAMaxHandles int64
	RDMAProtocol   rdma.Protocol

	// Socket transport.
	SocketDescriptors int64
	// SocketEff derates NIC bandwidth for TCP (memory copies across the
	// network stack, Section III-B5).
	SocketEff     float64
	SocketLatency sim.Time

	// DRC credential service (zero value: machine has no DRC).
	DRC *rdma.DRCConfig

	// Scheduling capabilities (Finding 5).
	AllowNodeSharing   bool
	AllowHeterogeneous bool

	Lustre lustre.Spec
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.CoresPerNode <= 0 {
		return fmt.Errorf("hpc: %d cores per node", s.CoresPerNode)
	}
	if s.CPUSpeed <= 0 {
		return fmt.Errorf("hpc: CPU speed %f", s.CPUSpeed)
	}
	if s.NICBytesPerSec <= 0 {
		return fmt.Errorf("hpc: NIC bandwidth %f", s.NICBytesPerSec)
	}
	if s.SocketEff <= 0 || s.SocketEff > 1 {
		return fmt.Errorf("hpc: socket efficiency %f", s.SocketEff)
	}
	return s.Lustre.Validate()
}

// Node is one compute node.
type Node struct {
	ID  int
	in  *sim.Link
	out *sim.Link
	bus *sim.Link

	Socks *sim.Resource
	Mem   *sim.Resource

	jobs     map[string]struct{}
	failed   bool
	failedAt sim.Time
	slow     []slowWindow
	loss     []*transientWindow
	busy     []*transientWindow
	opfault  []*transientWindow
}

// slowWindow is a transient message-timeout injection: sends touching
// the node during [from, until) pay extra per-message latency (the RPC
// retries a flaky link provokes).
type slowWindow struct {
	from, until sim.Time
	extra       sim.Time
}

// transientWindow is a probabilistic fault injection: during [from,
// until) each guarded operation fails with probability prob, drawn from
// the window's own seeded PRNG. The engine runs one process at a time,
// so the draw sequence — and therefore every injected failure — is
// reproducible from the seed alone.
type transientWindow struct {
	from, until sim.Time
	prob        float64
	rng         *rand.Rand
}

// draw consumes one PRNG value iff t falls inside the window.
func (w *transientWindow) draw(t sim.Time) bool {
	if t < w.from || t >= w.until || w.prob <= 0 {
		return false
	}
	return w.rng.Float64() < w.prob
}

// drawAny draws every open window in insertion order (so the PRNG
// consumption is deterministic) and reports whether any fired.
func drawAny(ws []*transientWindow, t sim.Time) bool {
	hit := false
	for _, w := range ws {
		if w.draw(t) {
			hit = true
		}
	}
	return hit
}

func newTransientWindow(from, until sim.Time, prob float64, seed int64) *transientWindow {
	return &transientWindow{from: from, until: until, prob: prob, rng: rand.New(rand.NewSource(seed))}
}

// AddLossWindow injects message loss: each inter-node message touching
// the node during [from, until) is dropped with probability prob.
func (n *Node) AddLossWindow(from, until sim.Time, prob float64, seed int64) {
	n.loss = append(n.loss, newTransientWindow(from, until, prob, seed))
}

// AddBusyWindow injects staging back-pressure: each staged put admitted
// by the node during [from, until) is rejected with probability prob.
func (n *Node) AddBusyWindow(from, until sim.Time, prob float64, seed int64) {
	n.busy = append(n.busy, newTransientWindow(from, until, prob, seed))
}

// AddOpFaultWindow injects transient operation faults: each staged
// put/get on the node during [from, until) fails with probability prob.
func (n *Node) AddOpFaultWindow(from, until sim.Time, prob float64, seed int64) {
	n.opfault = append(n.opfault, newTransientWindow(from, until, prob, seed))
}

// DrawMessageLoss reports whether a message touching the node at time t
// is lost to an injected loss window.
func (n *Node) DrawMessageLoss(t sim.Time) bool { return drawAny(n.loss, t) }

// DrawServerBusy reports whether a staged put on the node at time t is
// rejected by an injected busy window.
func (n *Node) DrawServerBusy(t sim.Time) bool { return drawAny(n.busy, t) }

// DrawOpFault reports whether a staged operation on the node at time t
// fails to an injected op-fault window.
func (n *Node) DrawOpFault(t sim.Time) bool { return drawAny(n.opfault, t) }

// Failed reports whether the node has crashed.
func (n *Node) Failed() bool { return n.failed }

// Fail marks the node crashed: all subsequent communication with it
// errors (the abrupt machine failures of Section IV-C).
func (n *Node) Fail() { n.failed = true }

// FailAt is Fail with the crash instant recorded, so failure detectors
// can account their detection latency against the true crash time.
func (n *Node) FailAt(t sim.Time) {
	if n.failed {
		return
	}
	n.failed = true
	n.failedAt = t
}

// FailedAt returns the crash instant recorded by FailAt (zero if the
// node is alive or was failed without a timestamp).
func (n *Node) FailedAt() sim.Time { return n.failedAt }

// AddTimeoutWindow injects message timeouts: every send touching the
// node during [from, until) pays extra latency per message.
func (n *Node) AddTimeoutWindow(from, until, extra sim.Time) {
	n.slow = append(n.slow, slowWindow{from: from, until: until, extra: extra})
}

// TimeoutPenalty returns the extra per-message latency in effect at
// time t (the sum of all open injection windows).
func (n *Node) TimeoutPenalty(t sim.Time) sim.Time {
	var extra sim.Time
	for _, w := range n.slow {
		if t >= w.from && t < w.until {
			extra += w.extra
		}
	}
	return extra
}

// In returns the node's NIC ingress link.
func (n *Node) In() *sim.Link { return n.in }

// Out returns the node's NIC egress link.
func (n *Node) Out() *sim.Link { return n.out }

// Bus returns the node's memory-bus link for intra-node copies.
func (n *Node) Bus() *sim.Link { return n.bus }

// Name returns a stable node name.
func (n *Node) Name() string { return fmt.Sprintf("node-%d", n.ID) }

// Machine is a running machine instance.
type Machine struct {
	SpecV Spec
	E     *sim.Engine
	Net   *sim.Net
	Nodes []*Node
	FS    *lustre.FS
	DRC   *rdma.DRC
	Mem   *memprof.Tracker

	// Metrics is the run's telemetry registry; nil (the default) disables
	// recording everywhere, mirroring trace.Recorder's nil-receiver
	// pattern. Every layer holding a *Machine records through this field.
	Metrics *metrics.Registry

	// Retry is the run's retry/backoff discipline for transport sends and
	// staging operations; nil (the default) means every failure surfaces
	// immediately, the true behaviour of the studied libraries. Like
	// Metrics, every layer holding a *Machine reaches it through this
	// field, and retry.Retrier's nil-receiver Do makes the off state free.
	Retry *retry.Retrier
}

// New builds a machine with nNodes nodes on the given engine.
func New(e *sim.Engine, spec Spec, nNodes int) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if nNodes <= 0 {
		return nil, fmt.Errorf("hpc: %d nodes", nNodes)
	}
	if spec.MaxNodes > 0 && nNodes > spec.MaxNodes {
		return nil, fmt.Errorf("hpc: %d nodes exceed %s's %d", nNodes, spec.Name, spec.MaxNodes)
	}
	m := &Machine{SpecV: spec, E: e, Net: e.NewNet(), Mem: memprof.NewTracker()}
	fs, err := lustre.New(e, m.Net, spec.Lustre)
	if err != nil {
		return nil, err
	}
	m.FS = fs
	if spec.DRC != nil {
		drc, err := rdma.NewDRC(e, *spec.DRC)
		if err != nil {
			return nil, err
		}
		m.DRC = drc
	}
	for i := 0; i < nNodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		n := &Node{
			ID:    i,
			in:    m.Net.NewLink(name+"/in", spec.NICBytesPerSec),
			out:   m.Net.NewLink(name+"/out", spec.NICBytesPerSec),
			bus:   m.Net.NewLink(name+"/bus", spec.MemBusBytesPerSec),
			Socks: e.NewResource("socks/"+name, spec.SocketDescriptors),
			Mem:   e.NewResource("mem/"+name, spec.NodeMemBytes),
			jobs:  make(map[string]struct{}),
		}
		m.Nodes = append(m.Nodes, n)
	}
	return m, nil
}

// Spec returns the machine specification.
func (m *Machine) Spec() Spec { return m.SpecV }

// WatchNode records node n's NIC utilization as the
// nic/<label>/{in,out}_util series (e.g. label "server-0"): each NIC link
// appends a sample whenever a rate recomputation changes its
// utilization. It does nothing while m.Metrics is nil, so set Metrics
// first.
func (m *Machine) WatchNode(label string, n *Node) {
	if m.Metrics == nil {
		return
	}
	n.in.RecordUtilization(m.Metrics.Series("nic/" + label + "/in_util"))
	n.out.RecordUtilization(m.Metrics.Series("nic/" + label + "/out_util"))
}

// Compute advances the process by refSeconds of Titan-equivalent compute.
func (m *Machine) Compute(p *sim.Proc, refSeconds float64) error {
	if refSeconds <= 0 {
		return nil
	}
	return p.Sleep(refSeconds / m.SpecV.CPUSpeed)
}

// PlaceJob reserves count nodes for a job starting at firstNode, marking
// them so node-sharing policy can be enforced. It returns the nodes.
func (m *Machine) PlaceJob(job string, firstNode, count int) ([]*Node, error) {
	if firstNode < 0 || firstNode+count > len(m.Nodes) {
		return nil, fmt.Errorf("hpc: job %s wants nodes [%d,%d) of %d",
			job, firstNode, firstNode+count, len(m.Nodes))
	}
	nodes := m.Nodes[firstNode : firstNode+count]
	for _, n := range nodes {
		if len(n.jobs) > 0 && !m.SpecV.AllowNodeSharing {
			return nil, fmt.Errorf("hpc: %s does not allow multiple jobs per node (%s busy)",
				m.SpecV.Name, n.Name())
		}
		n.jobs[job] = struct{}{}
	}
	return nodes, nil
}

// Alloc reserves bytes of main memory on the node for the named component,
// recording it in the memory tracker. It fails with ErrOutOfNodeMemory if
// the node has no room — the "out of main memory" abort of Table IV.
func (m *Machine) Alloc(node *Node, component, kind string, bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	if err := node.Mem.TryAcquire(bytes); err != nil {
		return fmt.Errorf("%w: %s wants %d on %s (%d of %d in use)",
			ErrOutOfNodeMemory, component, bytes, node.Name(), node.Mem.Used(), node.Mem.Capacity())
	}
	m.Mem.Alloc(component, kind, bytes)
	return nil
}

// Free releases a prior Alloc.
func (m *Machine) Free(node *Node, component, kind string, bytes int64) {
	if bytes <= 0 {
		return
	}
	node.Mem.Release(bytes)
	m.Mem.Free(component, kind, bytes)
}
