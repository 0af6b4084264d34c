// Package mpi is a miniature MPI-style runtime over the discrete-event
// machine model: ranks are simulated processes placed onto nodes, and
// point-to-point messages move real payloads while charging the machine's
// NIC (or intra-node bus) bandwidth. Decaf's dataflow links are built on
// it, mirroring how Decaf sits on MPI (Section II-A).
package mpi

import (
	"errors"
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// ErrRankRange reports an out-of-range rank argument.
var ErrRankRange = errors.New("mpi: rank out of range")

// Message is a delivered point-to-point message.
type Message struct {
	Src     int
	Tag     int
	Bytes   int64
	Payload any
}

type pendingRecv struct {
	src, tag int
	got      *sim.Event
}

// mailbox buffers delivered messages and waiting receivers for one rank.
type mailbox struct {
	queue   []Message
	waiters []*pendingRecv
}

// Comm is a communicator: an ordered group of ranks with private message
// matching (messages in one communicator are invisible to others).
type Comm struct {
	m     *hpc.Machine
	nodes []*hpc.Node // node of each rank
	boxes []*mailbox
}

// NewCommExplicit creates a communicator with an explicit node per rank
// (MPMD-style placement, used by Decaf to pin producer, dataflow and
// consumer rank ranges to their own node pools).
func NewCommExplicit(m *hpc.Machine, nodePerRank []*hpc.Node) (*Comm, error) {
	if len(nodePerRank) == 0 {
		return nil, fmt.Errorf("mpi: empty placement")
	}
	c := &Comm{m: m}
	for _, n := range nodePerRank {
		if n == nil {
			return nil, fmt.Errorf("mpi: nil node in placement")
		}
		c.nodes = append(c.nodes, n)
		c.boxes = append(c.boxes, &mailbox{})
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.nodes) }

// Node returns the node hosting the given rank.
func (c *Comm) Node(rank int) *hpc.Node { return c.nodes[rank] }

// Rank is a process's handle onto a communicator.
type Rank struct {
	c  *Comm
	id int
}

// Rank returns the handle for rank id; the caller must invoke its methods
// only from the owning process.
func (c *Comm) Rank(id int) (*Rank, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("%w: %d of %d", ErrRankRange, id, len(c.nodes))
	}
	return &Rank{c: c, id: id}, nil
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// countMsg records one point-to-point message.
func (r *Rank) countMsg(bytes int64) {
	reg := r.c.m.Metrics
	if reg == nil {
		return
	}
	reg.Counter("mpi/p2p/msgs").Inc()
	reg.Counter("mpi/p2p/bytes").Add(float64(bytes))
}

// Send transmits bytes (and an optional payload) to dst with the given
// tag, blocking the caller for the wire time (eager protocol).
func (r *Rank) Send(p *sim.Proc, dst, tag int, bytes int64, payload any) error {
	if dst < 0 || dst >= r.c.Size() {
		return fmt.Errorf("%w: send to %d of %d", ErrRankRange, dst, r.c.Size())
	}
	r.countMsg(bytes)
	if err := r.wire(p, dst, bytes); err != nil {
		return err
	}
	r.c.deliver(dst, Message{Src: r.id, Tag: tag, Bytes: bytes, Payload: payload})
	return nil
}

// Isend starts a non-blocking send and returns an event that fires once
// the message is delivered.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, bytes int64, payload any) (*sim.Event, error) {
	if dst < 0 || dst >= r.c.Size() {
		return nil, fmt.Errorf("%w: isend to %d of %d", ErrRankRange, dst, r.c.Size())
	}
	r.countMsg(bytes)
	done := p.Engine().NewEvent()
	rr := r
	p.Engine().Spawn(fmt.Sprintf("isend-%d-%d", r.id, dst), func(sp *sim.Proc) error {
		if err := rr.wire(sp, dst, bytes); err != nil {
			return err
		}
		rr.c.deliver(dst, Message{Src: rr.id, Tag: tag, Bytes: bytes, Payload: payload})
		done.Fire(nil)
		return nil
	})
	return done, nil
}

// wire charges the network path from this rank's node to dst's node.
func (r *Rank) wire(p *sim.Proc, dst int, bytes int64) error {
	src := r.c.nodes[r.id]
	to := r.c.nodes[dst]
	if src.Failed() {
		return fmt.Errorf("%w: %s (rank %d)", hpc.ErrNodeFailed, src.Name(), r.id)
	}
	if to.Failed() {
		return fmt.Errorf("%w: %s (rank %d)", hpc.ErrNodeFailed, to.Name(), dst)
	}
	if err := p.Sleep(r.c.m.SpecV.NICLatency); err != nil {
		return err
	}
	if src == to {
		return p.Transfer(r.c.m.Net, float64(bytes), src.Bus())
	}
	return p.Transfer(r.c.m.Net, float64(bytes), src.Out(), to.In())
}

// deliver places a message in dst's mailbox, waking a matching receiver.
func (c *Comm) deliver(dst int, msg Message) {
	box := c.boxes[dst]
	for i, w := range box.waiters {
		if w.src == msg.Src && w.tag == msg.Tag {
			box.waiters = append(box.waiters[:i], box.waiters[i+1:]...)
			w.got.Fire(msg)
			return
		}
	}
	box.queue = append(box.queue, msg)
}

// Recv blocks until a message with the given source and tag arrives, and
// returns it.
func (r *Rank) Recv(p *sim.Proc, src, tag int) (Message, error) {
	box := r.c.boxes[r.id]
	for i, msg := range box.queue {
		if src == msg.Src && tag == msg.Tag {
			box.queue = append(box.queue[:i], box.queue[i+1:]...)
			return msg, nil
		}
	}
	w := &pendingRecv{src: src, tag: tag, got: p.Engine().NewEvent()}
	box.waiters = append(box.waiters, w)
	v, err := p.Wait(w.got)
	if err != nil {
		return Message{}, err
	}
	return v.(Message), nil
}
