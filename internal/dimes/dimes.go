// Package dimes models DIMES, the DataSpaces-library variant that keeps
// staged data in the simulation processes' own memory and moves it
// memory-to-memory on demand, with stand-alone servers holding only
// metadata (Section II-A).
//
// Behaviours reproduced from the paper:
//
//   - puts pin data in a pre-registered RDMA buffer on the writer's node
//     (the -with-dimes-rdma-buffer-size build option); 16 ranks per node
//     each pinning a 128 MB step exceed Titan's 1,843 MB registered
//     memory, the Figure 3 failure;
//   - metadata servers stay small (~154 MB in Figure 6) because the
//     spatial index lives with the data owners, not the servers;
//   - gets are direct writer-to-reader transfers (no staging hop).
package dimes

import (
	"errors"
	"fmt"
	"sort"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
	"github.com/imcstudy/imcstudy/internal/transport"
)

// ErrBufferFull reports a put exceeding the client's configured RDMA
// buffer pool.
var ErrBufferFull = errors.New("dimes: RDMA buffer pool full")

// Memory-model constants.
const (
	// MetaServerBaseBytes is a DIMES server's fixed footprint (~150 MB;
	// the paper measures ~154 MB total in Figure 6).
	MetaServerBaseBytes int64 = 150 << 20
	// MetaEntryBytes is the metadata cost per registered block.
	MetaEntryBytes int64 = 1 << 10
	// ClientBaseBytes / ClientBufFactor mirror the DataSpaces client
	// footprint (Figure 5b matches 5a at ~400 MB/processor).
	ClientBaseBytes int64 = 187 << 20
	// ClientBufFactor is the client-side buffering per output byte.
	ClientBufFactor = 2.0
	// metaMsgBytes is the wire size of one metadata update or query.
	metaMsgBytes int64 = 256
)

// Config describes a DIMES deployment.
type Config struct {
	// Name prefixes component names (default "dimes").
	Name string
	// MetaServers is the number of metadata servers (the paper uses 4).
	MetaServers int
	// MetaServersPerNode is servers per node (default 2).
	MetaServersPerNode int
	// Mode selects RDMA or sockets.
	Mode transport.Mode
	// MaxVersions bounds retained versions (Table I: 1).
	MaxVersions int
	// RDMABufBytes is the per-client RDMA buffer pool
	// (-with-dimes-rdma-buffer-size; 1 GiB via ADIOS, 2 GiB native).
	RDMABufBytes int64
	// Writers is the writer count gating version visibility.
	Writers int
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "dimes"
	}
	if c.MetaServers == 0 {
		c.MetaServers = 4
	}
	if c.MetaServersPerNode == 0 {
		c.MetaServersPerNode = 2
	}
	if c.Mode == 0 {
		c.Mode = transport.ModeRDMA
	}
	if c.MaxVersions == 0 {
		c.MaxVersions = 1
	}
	if c.RDMABufBytes == 0 {
		c.RDMABufBytes = 1 << 30
	}
	return c
}

// MetaServer is one metadata server.
type MetaServer struct {
	ID   int
	Node *hpc.Node
	EP   *transport.Endpoint

	comp string
}

// System is a deployed DIMES instance.
type System struct {
	cfg     Config
	m       *hpc.Machine
	servers []*MetaServer
	gate    *staging.Gate
	// owners tracks which clients hold blocks of each version and where.
	owners map[staging.Key]*ownerSet
}

// ownerSet is the registry of one version: block i of index was
// registered by clients[i], in registration order. Entries of clients
// that have since evicted the version stay (a Get reaching one fails
// through that client's store) until no client holds it.
type ownerSet struct {
	index   ndarray.BoxIndex
	clients []*Client
	// holders counts the clients still holding the version.
	holders int
}

// add registers c as the owner of a block covering box.
func (s *ownerSet) add(box ndarray.Box, c *Client) {
	s.index.Add(ndarray.NewSyntheticBlock(box.Clone()))
	s.clients = append(s.clients, c)
}

// Deploy starts the metadata servers on the given nodes.
func Deploy(m *hpc.Machine, cfg Config, nodes []*hpc.Node) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Writers <= 0 {
		return nil, fmt.Errorf("dimes: %d writers", cfg.Writers)
	}
	need := (cfg.MetaServers + cfg.MetaServersPerNode - 1) / cfg.MetaServersPerNode
	if len(nodes) < need {
		return nil, fmt.Errorf("dimes: %d servers at %d per node need %d nodes, have %d",
			cfg.MetaServers, cfg.MetaServersPerNode, need, len(nodes))
	}
	sys := &System{
		cfg:    cfg,
		m:      m,
		gate:   staging.NewGate(m.E, cfg.Writers),
		owners: make(map[staging.Key]*ownerSet),
	}
	for i := 0; i < cfg.MetaServers; i++ {
		node := nodes[i/cfg.MetaServersPerNode]
		comp := fmt.Sprintf("%s-server-%d", cfg.Name, i)
		srv := &MetaServer{
			ID:   i,
			Node: node,
			EP:   transport.NewEndpoint(m, node, cfg.Name, comp, cfg.Mode),
			comp: comp,
		}
		if err := m.Alloc(node, comp, "base", MetaServerBaseBytes); err != nil {
			return nil, err
		}
		if i%cfg.MetaServersPerNode == 0 {
			m.WatchNode(comp, node)
		}
		sys.servers = append(sys.servers, srv)
	}
	return sys, nil
}

// Servers returns the metadata servers.
func (s *System) Servers() []*MetaServer { return s.servers }

// Gate exposes the version gate.
func (s *System) Gate() *staging.Gate { return s.gate }

// metaFor maps a version key to its metadata server.
func (s *System) metaFor(key staging.Key) *MetaServer {
	h := uint64(len(key.Var))*2654435761 + uint64(key.Version)
	for _, ch := range key.Var {
		h = h*31 + uint64(ch)
	}
	return s.servers[h%uint64(len(s.servers))]
}

// Client is one application process attached to DIMES. Writers keep their
// staged blocks locally; readers pull directly from writers.
type Client struct {
	sys  *System
	node *hpc.Node
	ep   *transport.Endpoint
	name string

	store    *staging.Store
	held     map[staging.Key]*heldVersion
	pinBytes int64
	versions map[string][]int
}

// heldVersion is what a client holds of one version it put.
type heldVersion struct {
	bytes  int64
	pinned []*rdma.Region
	// owner records that the client counts among the version's
	// ownerSet holders.
	owner bool
}

// NewClient attaches a client on node.
func (s *System) NewClient(node *hpc.Node, job, name string, perStepBytes int64) (*Client, error) {
	c := &Client{
		sys:      s,
		node:     node,
		ep:       transport.NewEndpoint(s.m, node, job, name, s.cfg.Mode),
		name:     name,
		store:    staging.NewStore(s.m, node, name, "staging", 0, 0),
		held:     make(map[staging.Key]*heldVersion),
		versions: make(map[string][]int),
	}
	lib := ClientBaseBytes + int64(ClientBufFactor*float64(perStepBytes))
	if err := s.m.Alloc(node, name, "library", lib); err != nil {
		return nil, err
	}
	return c, nil
}

// Init acquires transport credentials and attaches the client to every
// metadata server (DART bootstrap); at very large scales the servers'
// peer-mailbox handlers run out (Section III-B1).
func (c *Client) Init(p *sim.Proc) error {
	if err := c.ep.Init(p); err != nil {
		return err
	}
	for _, srv := range c.sys.servers {
		if err := c.ep.AttachPeers(srv.EP); err != nil {
			return err
		}
	}
	return nil
}

// Put stages the block in the client's own memory (dimes_put): the data
// is pinned in the node's RDMA domain and registered with a metadata
// server; nothing moves to a staging server. Old versions beyond
// MaxVersions are evicted first.
func (c *Client) Put(p *sim.Proc, varName string, version int, blk ndarray.Block) error {
	if mreg := c.sys.m.Metrics; mreg != nil {
		g := mreg.SampledGauge(c.sys.cfg.Name + "/puts_inflight")
		g.Add(1)
		defer g.Add(-1)
	}
	c.evict(varName, version)
	if c.pinBytes+blk.Bytes() > c.sys.cfg.RDMABufBytes {
		return fmt.Errorf("%w: %s holds %d, wants %d more of %d",
			ErrBufferFull, c.name, c.pinBytes, blk.Bytes(), c.sys.cfg.RDMABufBytes)
	}
	key := staging.Key{Var: varName, Version: version}
	var reg *rdma.Region
	if dom := c.ep.Domain(); dom != nil {
		var err error
		reg, err = dom.Register(blk.Bytes())
		if err != nil {
			return fmt.Errorf("dimes put %s v%d: %w", varName, version, err)
		}
	}
	if err := c.sys.m.Retry.Do(p, "dimes/put", func() error {
		return c.store.Put(key, blk)
	}); err != nil {
		if reg != nil {
			reg.Deregister()
		}
		return err
	}
	h := c.held[key]
	if h == nil {
		h = &heldVersion{}
		c.held[key] = h
		c.versions[varName] = append(c.versions[varName], version)
	}
	if reg != nil {
		h.pinned = append(h.pinned, reg)
	}
	c.addPinBytes(blk.Bytes())
	h.bytes += blk.Bytes()
	// Metadata update to the version's server.
	srv := c.sys.metaFor(key)
	if err := c.ep.Send(p, srv.EP, metaMsgBytes, transport.SendOpts{}); err != nil {
		return err
	}
	if err := c.sys.m.Alloc(srv.Node, srv.comp, "metadata", MetaEntryBytes); err != nil {
		return err
	}
	set := c.sys.owners[key]
	if set == nil {
		set = &ownerSet{}
		c.sys.owners[key] = set
	}
	set.add(blk.Box, c)
	if !h.owner {
		h.owner = true
		set.holders++
	}
	return nil
}

// evict drops versions of varName older than allowed by MaxVersions once
// version arrives.
func (c *Client) evict(varName string, version int) {
	maxV := c.sys.cfg.MaxVersions
	if maxV <= 0 {
		return
	}
	vs := c.versions[varName]
	var keep []int
	for _, v := range vs {
		if v > version-maxV {
			keep = append(keep, v)
			continue
		}
		key := staging.Key{Var: varName, Version: v}
		c.addPinBytes(-c.release(key))
		c.store.DropVersion(key)
	}
	c.versions[varName] = keep
}

// release deregisters the client's pinned regions of key and withdraws
// it from the key's holders, dropping the owner set once nobody holds
// the version. It returns the bytes the client held of key.
func (c *Client) release(key staging.Key) int64 {
	h := c.held[key]
	if h == nil {
		return 0
	}
	for _, reg := range h.pinned {
		reg.Deregister()
	}
	delete(c.held, key)
	if set := c.sys.owners[key]; h.owner && set != nil {
		if set.holders--; set.holders == 0 {
			delete(c.sys.owners, key)
		}
	}
	return h.bytes
}

// Commit releases the version for readers.
func (c *Client) Commit(varName string, version int) {
	c.sys.gate.Commit(staging.Key{Var: varName, Version: version})
}

// Get pulls box of version directly from the writers holding it
// (dimes_get): one metadata round-trip, then memory-to-memory transfers
// whose source side is already registered (the DIMES buffer pool).
func (c *Client) Get(p *sim.Proc, varName string, version int, box ndarray.Box) (ndarray.Block, error) {
	if mreg := c.sys.m.Metrics; mreg != nil {
		g := mreg.SampledGauge(c.sys.cfg.Name + "/gets_inflight")
		g.Add(1)
		defer g.Add(-1)
	}
	key := staging.Key{Var: varName, Version: version}
	if err := c.sys.gate.WaitReady(p, key); err != nil {
		return ndarray.Block{}, err
	}
	srv := c.sys.metaFor(key)
	// Query + response.
	if err := c.ep.Send(p, srv.EP, metaMsgBytes, transport.SendOpts{}); err != nil {
		return ndarray.Block{}, err
	}
	if err := srv.EP.Send(p, c.ep, metaMsgBytes, transport.SendOpts{}); err != nil {
		return ndarray.Block{}, err
	}
	set := c.sys.owners[key]
	if set == nil {
		return ndarray.Block{}, fmt.Errorf("dimes get %s v%d: %w: no writer holds it", varName, version, staging.ErrNotFound)
	}
	var parts []ndarray.Block
	for _, i := range set.index.Overlapping(box, nil) {
		owner := set.clients[i]
		var blocks []ndarray.Block
		err := c.sys.m.Retry.Do(p, "dimes/get", func() error {
			var err error
			blocks, err = owner.store.Query(key, box)
			return err
		})
		if err != nil {
			return ndarray.Block{}, err
		}
		var bytes int64
		for _, b := range blocks {
			bytes += b.Bytes()
		}
		if err := owner.ep.Send(p, c.ep, bytes, transport.SendOpts{SrcRegistered: true}); err != nil {
			return ndarray.Block{}, fmt.Errorf("dimes get %s v%d: %w", varName, version, err)
		}
		parts = append(parts, blocks...)
	}
	out, err := ndarray.Assemble(box, parts)
	if err != nil {
		return ndarray.Block{}, fmt.Errorf("dimes get %s v%d: %w", varName, version, err)
	}
	return out, nil
}

// PinnedBytes returns the bytes currently pinned in the RDMA pool.
func (c *Client) PinnedBytes() int64 { return c.pinBytes }

// Close releases everything the client holds. Versions drop in sorted
// key order, not map order: Deregister can unblock registration waiters,
// so iteration order is event order.
func (c *Client) Close() {
	keys := make([]staging.Key, 0, len(c.held))
	for key := range c.held {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Var != keys[b].Var {
			return keys[a].Var < keys[b].Var
		}
		return keys[a].Version < keys[b].Version
	})
	for _, key := range keys {
		c.release(key)
	}
	clear(c.versions)
	c.addPinBytes(-c.pinBytes)
	c.store.Close()
	c.ep.Close()
}

// Shutdown tears down the metadata servers.
func (s *System) Shutdown() {
	for _, srv := range s.servers {
		s.m.Free(srv.Node, srv.comp, "base", MetaServerBaseBytes)
		s.m.Free(srv.Node, srv.comp, "metadata", s.m.Mem.Component(srv.comp).CurrentOf("metadata"))
		srv.EP.Close()
	}
}

// RDMADomain returns the client's per-process RDMA domain (nil in socket
// mode).
func (c *Client) RDMADomain() *rdma.Domain { return c.ep.Domain() }

// addPinBytes moves the client's pinned-byte count and the aggregate
// pinned-bytes track.
func (c *Client) addPinBytes(delta int64) {
	c.pinBytes += delta
	if mreg := c.sys.m.Metrics; mreg != nil {
		mreg.SampledGauge(c.sys.cfg.Name + "/pinned_bytes").Add(float64(delta))
	}
}
