// Package transport provides the common data-movement abstraction the
// staging libraries are built on. An Endpoint belongs to one workflow
// component on one node; sends between endpoints choose the physical path
// (intra-node memory bus, RDMA over NICs, or TCP sockets over NICs) and
// charge the corresponding resources:
//
//   - RDMA sends register transient memory regions on both nodes, so many
//     concurrent large transfers deplete the node's registered-memory pool
//     exactly as the paper describes (Section III-B1, Table IV);
//   - RDMA endpoints on DRC machines must acquire a credential at init,
//     reproducing the DRC overload and node-secure failures;
//   - socket connections consume file descriptors on both nodes and move
//     data at derated bandwidth (the memory-copy tax of Section III-B5).
package transport

import (
	"errors"
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// ErrOutOfSockets reports socket-descriptor exhaustion on a node
// (Table IV, "out of sockets").
var ErrOutOfSockets = errors.New("transport: out of socket descriptors")

// RecvWindow is the number of incoming RDMA transfers an endpoint
// processes concurrently (its pool of posted receive buffers). Senders
// beyond the window queue FIFO, which bounds the transient
// registered-memory and handler pressure a hot receiver suffers.
const RecvWindow = 64

// BounceThreshold is the message size up to which transfers are copied
// through the receiver's pre-registered bounce-buffer pool: no transient
// registration, and every sender fair-shares the receiver's NIC — which
// is why N writers targeting one staging server proceed in lockstep and
// leave the other servers idle (the N-to-1 pathology, Finding 3). Larger
// messages take the zero-copy path: synchronous registration of the full
// buffer on both ends (the Figure 3 out-of-RDMA failures).
const BounceThreshold int64 = 16 << 20

// Mode selects the transport implementation.
type Mode int

// Transport modes.
const (
	// ModeRDMA uses the machine's native RDMA path (uGNI or NNTI profile).
	ModeRDMA Mode = iota + 1
	// ModeSocket uses TCP sockets.
	ModeSocket
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeRDMA:
		return "rdma"
	case ModeSocket:
		return "socket"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SendOpts tunes one send.
type SendOpts struct {
	// SrcRegistered marks the source buffer as pre-registered (e.g. the
	// DIMES RDMA buffer pool), skipping transient registration.
	SrcRegistered bool
	// DstRegistered marks the destination buffer as pre-registered.
	DstRegistered bool
}

// Mitigation options (the paper's Table IV suggested resolves), set per
// endpoint via the With* methods.
type mitigations struct {
	// waitRetry blocks RDMA registration until resources free instead of
	// failing hard ("better error handling, e.g., adding wait and
	// re-try").
	waitRetry bool
	// socketPool caps the endpoint's socket descriptors; further peers
	// multiplex over the pool at an extra per-message latency ("design a
	// socket pool ... this may compromise the data movement efficiency").
	socketPool int
}

// Endpoint is one component's attachment to the fabric.
type Endpoint struct {
	m    *hpc.Machine
	node *hpc.Node
	job  string
	name string
	mode Mode

	proto         rdma.Protocol
	cred          *rdma.Credential
	domain        *rdma.Domain
	recvWindow    *sim.Resource
	sendWindow    *sim.Resource
	mit           mitigations
	attachedPeers int64
	conns         map[*Endpoint]struct{}
	// connList mirrors conns in connection order so Close releases
	// descriptors (which can unblock waiters) deterministically instead
	// of in map order.
	connList []*Endpoint
	closed   bool

	// Cached per-path counters, resolved once per registry so the
	// per-message count calls skip name building and registry locking.
	ctrReg *metrics.Registry
	ctrs   map[string]*pathCounters
}

// pathCounters caches the message/byte counters of one transport path.
type pathCounters struct {
	msgs  *metrics.Counter
	bytes *metrics.Counter
}

// NewEndpoint creates an endpoint for component name of the given job on
// node, using the given transport mode.
func NewEndpoint(m *hpc.Machine, node *hpc.Node, job, name string, mode Mode) *Endpoint {
	ep := &Endpoint{
		m:     m,
		node:  node,
		job:   job,
		name:  name,
		mode:  mode,
		conns: make(map[*Endpoint]struct{}),
	}
	if mode == ModeRDMA {
		// Per-process registration domain: the Figure 4 limits (1,843 MB,
		// 3,675 handlers on Titan) are what one process can register.
		ep.domain = rdma.NewDomain(m.E, node.Name()+"/"+name, m.SpecV.RDMAMemBytes, m.SpecV.RDMAMaxHandles)
		ep.proto = m.SpecV.RDMAProtocol
		ep.recvWindow = m.E.NewResource("recv-window/"+name, RecvWindow)
		ep.sendWindow = m.E.NewResource("send-window/"+name, RecvWindow)
	}
	return ep
}

// UseProtocol overrides the endpoint's RDMA protocol profile (e.g.
// Flexpath's NNTI layer instead of the machine's native uGNI). Only the
// uGNI profile talks to the DRC credential service.
func (ep *Endpoint) UseProtocol(proto rdma.Protocol) { ep.proto = proto }

// RecvWindowResource returns the endpoint's bounded pool of posted
// receive descriptors (nil in socket mode). Staging servers hang a
// queue-depth observer on it to expose the N-to-1 receive backlog.
func (ep *Endpoint) RecvWindowResource() *sim.Resource { return ep.recvWindow }

// Protocol returns the endpoint's RDMA protocol profile.
func (ep *Endpoint) Protocol() rdma.Protocol { return ep.proto }

// Domain returns the endpoint's per-process RDMA domain (nil in socket
// mode).
func (ep *Endpoint) Domain() *rdma.Domain { return ep.domain }

// WithWaitRetry makes RDMA registrations on this endpoint wait for
// resources instead of failing hard — the first Table IV resolve for the
// out-of-RDMA failures.
func (ep *Endpoint) WithWaitRetry() { ep.mit.waitRetry = true }

// WithSocketPool caps this endpoint's descriptors at n; sends beyond the
// pool multiplex over existing connections with an extra latency — the
// Table IV resolve for descriptor exhaustion.
func (ep *Endpoint) WithSocketPool(n int) { ep.mit.socketPool = n }

// AttachPeers registers RDMA peer mailboxes between this endpoint and
// each peer (the DART bootstrap that connects an application process to
// the whole server set). With enough peers the memory-handler budget is
// exhausted — the (8192, 4096) failure of Section III-B1. No-op in
// socket mode.
func (ep *Endpoint) AttachPeers(peers ...*Endpoint) error {
	if ep.mode != ModeRDMA {
		return nil
	}
	for _, peer := range peers {
		if err := ep.domain.AddPeerMailboxes(1); err != nil {
			return fmt.Errorf("endpoint %s: %w", ep.name, err)
		}
		ep.attachedPeers++
		if peer.domain == nil {
			continue
		}
		if err := peer.domain.AddPeerMailboxes(1); err != nil {
			return fmt.Errorf("endpoint %s attaching %s: %w", ep.name, peer.name, err)
		}
	}
	return nil
}

// Node returns the endpoint's node.
func (ep *Endpoint) Node() *hpc.Node { return ep.node }

// Name returns the component name.
func (ep *Endpoint) Name() string { return ep.name }

// Mode returns the transport mode.
func (ep *Endpoint) Mode() Mode { return ep.mode }

// Init prepares the endpoint. On an RDMA machine with a DRC service this
// acquires the job's credential for the node; a flood of concurrent Init
// calls from a large job can overload the DRC (Section III-B1), and a
// second job on a shared node is denied unless node-insecure is set
// (Finding 5).
func (ep *Endpoint) Init(p *sim.Proc) error {
	if ep.mode != ModeRDMA || ep.m.DRC == nil || ep.proto != rdma.ProtoUGNI {
		return nil
	}
	cred, err := ep.m.DRC.Acquire(p, ep.job, ep.node.Name())
	if err != nil {
		return fmt.Errorf("endpoint %s: %w", ep.name, err)
	}
	ep.cred = &cred
	return nil
}

// Connect establishes a connection to peer. In socket mode it consumes
// one descriptor on each node (failing hard when a node is out); in RDMA
// mode it is free. Connecting twice to the same peer is a no-op.
func (ep *Endpoint) Connect(p *sim.Proc, peer *Endpoint) error {
	if _, ok := ep.conns[peer]; ok {
		return nil
	}
	if ep.mode == ModeSocket {
		// A connection pins one descriptor on each node for its lifetime.
		if err := ep.node.Socks.TryAcquire(1); err != nil {
			return fmt.Errorf("%w: %s on %s", ErrOutOfSockets, ep.name, ep.node.Name())
		}
		if err := peer.node.Socks.TryAcquire(1); err != nil {
			ep.node.Socks.Release(1)
			return fmt.Errorf("%w: %s on %s (accepting from %s)",
				ErrOutOfSockets, peer.name, peer.node.Name(), ep.name)
		}
		if err := p.Sleep(ep.m.SpecV.SocketLatency); err != nil {
			return err
		}
	}
	ep.conns[peer] = struct{}{}
	ep.connList = append(ep.connList, peer)
	peer.conns[ep] = struct{}{}
	peer.connList = append(peer.connList, ep)
	return nil
}

// Connections returns the number of live connections.
func (ep *Endpoint) Connections() int { return len(ep.conns) }

// Send moves bytes to peer, blocking until delivery. The path depends on
// node placement and mode; see the package comment. Zero-byte sends cost
// one message latency.
//
// Injected loss windows on either node can drop the message (the sender
// learns via a failed completion and gets hpc.ErrMessageLost); when the
// machine carries a retry policy, lost sends are re-attempted with
// backoff before the error surfaces.
func (ep *Endpoint) Send(p *sim.Proc, peer *Endpoint, bytes int64, opts SendOpts) error {
	if ret := ep.m.Retry; ret != nil {
		return ret.Do(p, "send", func() error { return ep.sendOnce(p, peer, bytes, opts) })
	}
	return ep.sendOnce(p, peer, bytes, opts)
}

// sendOnce is one send attempt.
func (ep *Endpoint) sendOnce(p *sim.Proc, peer *Endpoint, bytes int64, opts SendOpts) error {
	if ep.node.Failed() {
		return fmt.Errorf("%w: %s (sender %s)", hpc.ErrNodeFailed, ep.node.Name(), ep.name)
	}
	if peer.node.Failed() {
		return fmt.Errorf("%w: %s (receiver %s)", hpc.ErrNodeFailed, peer.node.Name(), peer.name)
	}
	// Injected message-timeout windows: a flaky path costs RPC retries,
	// charged as extra latency on every message touching the node.
	if extra := ep.node.TimeoutPenalty(p.Now()) + peer.node.TimeoutPenalty(p.Now()); extra > 0 {
		ep.countTimeout(extra)
		if err := p.Sleep(extra); err != nil {
			return err
		}
	}
	if ep.node == peer.node {
		// Intra-node: a memory copy over the node's bus (Figure 13).
		ep.count("bus", bytes)
		if err := p.Sleep(ep.m.SpecV.NICLatency); err != nil {
			return err
		}
		return p.Transfer(ep.m.Net, float64(bytes), ep.node.Bus())
	}
	// Injected fabric loss (inter-node paths only: the memory bus does
	// not drop). Both ends draw so a window on either node can kill the
	// message; the sender pays one message latency discovering it.
	if src, dst := ep.node.DrawMessageLoss(p.Now()), peer.node.DrawMessageLoss(p.Now()); src || dst {
		ep.countLoss()
		if err := p.Sleep(ep.m.SpecV.NICLatency); err != nil {
			return err
		}
		return fmt.Errorf("%w: %s -> %s", hpc.ErrMessageLost, ep.name, peer.name)
	}
	switch ep.mode {
	case ModeRDMA:
		return ep.sendRDMA(p, peer, bytes, opts)
	case ModeSocket:
		return ep.sendSocket(p, peer, bytes)
	default:
		return fmt.Errorf("transport: unknown mode %v", ep.mode)
	}
}

func (ep *Endpoint) sendRDMA(p *sim.Proc, peer *Endpoint, bytes int64, opts SendOpts) error {
	if bytes <= BounceThreshold {
		// Eager/bounce path: the payload is copied through pre-registered
		// pool buffers at the receiver; no transient registration, and all
		// senders fair-share the receiver's NIC.
		ep.count("rdma_eager", bytes)
		if err := p.Sleep(ep.m.SpecV.NICLatency); err != nil {
			return err
		}
		return p.Transfer(ep.m.Net, float64(bytes), ep.node.Out(), peer.node.In())
	}
	// Both sides process a bounded number of concurrent bulk transfers
	// (posted receive/send descriptors); extra senders queue FIFO.
	ep.count("rdma_bulk", bytes)
	reg := ep.m.Metrics
	t0 := p.Now()
	if err := p.Acquire(ep.sendWindow, 1); err != nil {
		return err
	}
	defer ep.sendWindow.Release(1)
	if reg != nil {
		reg.Histogram("transport/send_window_wait_s").Observe(p.Now() - t0)
	}
	t0 = p.Now()
	if err := p.Acquire(peer.recvWindow, 1); err != nil {
		return err
	}
	defer peer.recvWindow.Release(1)
	if reg != nil {
		reg.Histogram("transport/recv_window_wait_s").Observe(p.Now() - t0)
	}
	var srcReg, dstReg *rdma.Region
	defer func() {
		if srcReg != nil {
			srcReg.Deregister()
		}
		if dstReg != nil {
			dstReg.Deregister()
		}
	}()
	if !opts.SrcRegistered {
		r, err := ep.register(p, ep.domain, bytes)
		if err != nil {
			return fmt.Errorf("send %s->%s: %w", ep.name, peer.name, err)
		}
		srcReg = r
	}
	if !opts.DstRegistered && peer.domain != nil {
		r, err := ep.register(p, peer.domain, bytes)
		if err != nil {
			return fmt.Errorf("send %s->%s: %w", ep.name, peer.name, err)
		}
		dstReg = r
	}
	if err := p.Sleep(ep.m.SpecV.NICLatency); err != nil {
		return err
	}
	return p.Transfer(ep.m.Net, float64(bytes), ep.node.Out(), peer.node.In())
}

// register grabs a transient RDMA registration in dom, honoring the
// endpoint's wait-retry mitigation.
func (ep *Endpoint) register(p *sim.Proc, dom *rdma.Domain, bytes int64) (*rdma.Region, error) {
	if ep.mit.waitRetry {
		return dom.RegisterWait(p, bytes)
	}
	return dom.Register(bytes)
}

func (ep *Endpoint) sendSocket(p *sim.Proc, peer *Endpoint, bytes int64) error {
	if _, ok := ep.conns[peer]; !ok {
		pooledOut := ep.mit.socketPool > 0 && len(ep.conns) >= ep.mit.socketPool
		pooledIn := peer.mit.socketPool > 0 && len(peer.conns) >= peer.mit.socketPool
		if pooledOut || pooledIn {
			// Either side's pool is exhausted: multiplex over existing
			// connections. The extra hop costs one more socket latency per
			// message (the efficiency compromise Table IV notes).
			if err := p.Sleep(ep.m.SpecV.SocketLatency); err != nil {
				return err
			}
		} else if err := ep.Connect(p, peer); err != nil {
			return err
		}
	}
	if err := p.Sleep(ep.m.SpecV.SocketLatency); err != nil {
		return err
	}
	// The kernel-stack memory copies shrink the usable NIC bandwidth.
	ep.count("socket", bytes)
	effBytes := float64(bytes) / ep.m.SpecV.SocketEff
	return p.Transfer(ep.m.Net, effBytes, ep.node.Out(), peer.node.In())
}

// countLoss records one injected message loss; no-op without a registry
// on the machine.
func (ep *Endpoint) countLoss() {
	if reg := ep.m.Metrics; reg != nil {
		reg.Counter("transport/lost_msgs").Inc()
	}
}

// countTimeout records one injected message timeout; no-op without a
// registry on the machine.
func (ep *Endpoint) countTimeout(extra float64) {
	reg := ep.m.Metrics
	if reg == nil {
		return
	}
	reg.Counter("transport/timeouts/msgs").Inc()
	reg.Counter("transport/timeouts/seconds").Add(extra)
}

// count records one message on a transport path; no-op without a
// registry on the machine.
func (ep *Endpoint) count(path string, bytes int64) {
	reg := ep.m.Metrics
	if reg == nil {
		return
	}
	if reg != ep.ctrReg {
		ep.ctrReg = reg
		ep.ctrs = make(map[string]*pathCounters, 4)
	}
	c, ok := ep.ctrs[path]
	if !ok {
		c = &pathCounters{
			msgs:  reg.Counter("transport/" + path + "/msgs"),
			bytes: reg.Counter("transport/" + path + "/bytes"),
		}
		ep.ctrs[path] = c
	}
	c.msgs.Inc()
	c.bytes.Add(float64(bytes))
}

// Close tears down all connections (releasing one descriptor per node per
// connection) and returns the endpoint's DRC credential.
func (ep *Endpoint) Close() {
	if ep.closed {
		return
	}
	ep.closed = true
	for _, peer := range ep.connList {
		if _, ok := ep.conns[peer]; !ok {
			continue // peer already closed this connection
		}
		delete(ep.conns, peer)
		delete(peer.conns, ep)
		if ep.mode == ModeSocket {
			ep.node.Socks.Release(1)
			peer.node.Socks.Release(1)
		}
	}
	ep.conns = make(map[*Endpoint]struct{})
	ep.connList = nil
	if ep.domain != nil && ep.attachedPeers > 0 {
		ep.domain.RemovePeerMailboxes(ep.attachedPeers)
		ep.attachedPeers = 0
	}
	if ep.cred != nil && ep.m.DRC != nil {
		ep.m.DRC.Release(*ep.cred)
		ep.cred = nil
	}
}
