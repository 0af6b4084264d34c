// Package dataspaces models the DataSpaces 1.7.2 staging service
// (Docan et al.): dedicated staging servers hold a shared virtual space
// that clients access through put()/get(), with versioned objects,
// writer/reader locks and a spatial index.
//
// The model reproduces the behaviours the paper dissects:
//
//   - the server-side domain decomposition into 2^ceil(log2 n) regions
//     along the *longest* dimension, accessed sequentially by every
//     client, which degenerates into N-to-1 server access when the
//     application scales along a different dimension (Figure 8,
//     Finding 3);
//   - Hilbert-SFC indexing (hash_version=1) whose padded 2^k index space
//     inflates server memory superlinearly (Figure 6), versus the
//     bounding-box index (hash_version=2) used in the paper's runs;
//   - transient RDMA registration on both ends of every transfer, so
//     concurrent large puts deplete a server node's registered memory
//     (Section III-B1);
//   - receive-path buffering that makes a server's footprint exceed the
//     staged bytes (Figure 7).
package dataspaces

import (
	"errors"
	"fmt"
	"sort"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sfc"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
	"github.com/imcstudy/imcstudy/internal/transport"
)

// ErrUndefinedVar is returned when a variable's global dimensions were
// never defined.
var ErrUndefinedVar = errors.New("dataspaces: variable dimensions not defined")

// HashVersion selects the metadata/index scheme (the hash_version runtime
// option of Table I).
type HashVersion int

// Index schemes.
const (
	// HashSFC is the Hilbert space-filling-curve index (hash_version=1).
	HashSFC HashVersion = 1
	// HashBBox is the bounding-box index (hash_version=2), the setting the
	// paper's runs use.
	HashBBox HashVersion = 2
)

// Memory-model constants (see DESIGN.md Section 4 for the calibration).
const (
	// ServerBaseBytes is a staging server's fixed startup footprint.
	ServerBaseBytes int64 = 64 << 20
	// BufferFactor charges extra receive/forward buffering per staged byte
	// (a 320 MB LAMMPS shard peaks near 560 MB, Figure 5e).
	BufferFactor = 0.75
	// SFCIndexBytesPerCell is the per-index-space-cell cost of the SFC
	// index; at 64 MB/proc Laplace this yields ~6 GB per server (Fig 6).
	SFCIndexBytesPerCell = 0.2
	// BBoxEntryBytes is the per-block metadata cost of hash_version=2.
	BBoxEntryBytes int64 = 1 << 10
	// metaMsgBytes is the wire size of one DHT metadata update: the
	// object-descriptor put a client sends to the key's home server, and
	// the peer updates servers exchange (the connections the paper found
	// depleting socket descriptors, Section III-B5).
	metaMsgBytes int64 = 256
	// ClientBaseBytes plus ClientBufFactor x per-step output is the client
	// library footprint (~227 MB for the 20 MB LAMMPS output, Figure 5a).
	ClientBaseBytes int64 = 187 << 20
	// ClientBufFactor is the client-side buffering per output byte.
	ClientBufFactor = 2.0
)

// Config describes a DataSpaces deployment.
type Config struct {
	// Name prefixes server component names (default "dataspaces").
	Name string
	// Servers is the number of staging servers. The paper provisions one
	// server per 8 analytics processors.
	Servers int
	// ServersPerNode is how many servers share a node (the paper launches
	// two per node).
	ServersPerNode int
	// Mode selects RDMA (uGNI) or sockets.
	Mode transport.Mode
	// MaxVersions bounds retained versions per variable (Table I:
	// max_versions=1).
	MaxVersions int
	// Hash selects the index scheme (Table I: hash_version=2).
	Hash HashVersion
	// Writers is the number of writer clients that must commit a version
	// before readers may consume it (lock_type=2 semantics).
	Writers int
	// WaitRetry applies the Table IV mitigation: RDMA registrations wait
	// for resources instead of crashing.
	WaitRetry bool
	// SocketPool caps each endpoint's descriptors; 0 disables pooling.
	SocketPool int
	// Replication stores every staged object on this many servers placed
	// on distinct nodes, with failover reads and detection-triggered
	// re-replication — the resilience layer Section IV-C notes no staging
	// library ships. <= 1 disables it (the library's true behaviour).
	Replication int
	// Detector drives failover reads and recovery when Replication > 1.
	// Deploy creates a default one if left nil.
	Detector *staging.Detector
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "dataspaces"
	}
	if c.ServersPerNode == 0 {
		c.ServersPerNode = 2
	}
	if c.Mode == 0 {
		c.Mode = transport.ModeRDMA
	}
	if c.MaxVersions == 0 {
		c.MaxVersions = 1
	}
	if c.Hash == 0 {
		c.Hash = HashBBox
	}
	return c
}

// Server is one staging server.
type Server struct {
	ID    int
	Node  *hpc.Node
	EP    *transport.Endpoint
	Store *staging.Store

	comp string
}

// System is a deployed DataSpaces instance.
type System struct {
	cfg     Config
	m       *hpc.Machine
	servers []*Server
	global  map[string]ndarray.Box
	regions map[string][]ndarray.Box
	gate    *staging.Gate

	// extras are replacement replicas recovery created, keyed by
	// variable and region index; reads and replicated writes consult
	// them after the static replica chain.
	extras map[regionKey][]*Server

	recObjects int64
	recBytes   int64
	recTime    sim.Time
	recovered  bool
}

// Deploy creates the staging servers on the given nodes (ServersPerNode
// servers per node, in order) and charges their base memory. The paper's
// Figure 5a/5e memory spike at server creation is this allocation.
func Deploy(m *hpc.Machine, cfg Config, nodes []*hpc.Node) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("dataspaces: %d servers", cfg.Servers)
	}
	if cfg.Writers <= 0 {
		return nil, fmt.Errorf("dataspaces: %d writers", cfg.Writers)
	}
	need := (cfg.Servers + cfg.ServersPerNode - 1) / cfg.ServersPerNode
	if len(nodes) < need {
		return nil, fmt.Errorf("dataspaces: %d servers at %d per node need %d nodes, have %d",
			cfg.Servers, cfg.ServersPerNode, need, len(nodes))
	}
	sys := &System{
		cfg:     cfg,
		m:       m,
		global:  make(map[string]ndarray.Box),
		regions: make(map[string][]ndarray.Box),
		gate:    staging.NewGate(m.E, cfg.Writers),
		extras:  make(map[regionKey][]*Server),
	}
	for i := 0; i < cfg.Servers; i++ {
		node := nodes[i/cfg.ServersPerNode]
		comp := fmt.Sprintf("%s-server-%d", cfg.Name, i)
		srv := &Server{
			ID:    i,
			Node:  node,
			EP:    transport.NewEndpoint(m, node, cfg.Name, comp, cfg.Mode),
			Store: staging.NewStore(m, node, comp, "staging", cfg.MaxVersions, BufferFactor),
			comp:  comp,
		}
		applyMitigations(srv.EP, cfg)
		if err := m.Alloc(node, comp, "base", ServerBaseBytes); err != nil {
			return nil, err
		}
		if reg := m.Metrics; reg != nil {
			if i%cfg.ServersPerNode == 0 {
				m.WatchNode(comp, node)
			}
			if rw := srv.EP.RecvWindowResource(); rw != nil {
				g := reg.SampledGauge(cfg.Name + "/" + comp + "/recv_queue")
				rw.SetObserver(func(t sim.Time, used int64, queued int) {
					g.Set(float64(queued))
				})
			}
		}
		sys.servers = append(sys.servers, srv)
	}
	if cfg.Replication > 1 {
		distinct := make(map[*hpc.Node]bool)
		for _, srv := range sys.servers {
			distinct[srv.Node] = true
		}
		if len(distinct) < cfg.Replication {
			return nil, fmt.Errorf("dataspaces: replication %d needs servers on %d distinct nodes, have %d",
				cfg.Replication, cfg.Replication, len(distinct))
		}
		if sys.cfg.Detector == nil {
			sys.cfg.Detector = staging.NewDetector(m, staging.DetectorConfig{})
		}
		sys.cfg.Detector.Watch(func(n *hpc.Node, _ sim.Time) {
			m.E.Spawn(fmt.Sprintf("%s-recover-%s", cfg.Name, n.Name()), func(p *sim.Proc) error {
				return sys.recover(p, n)
			})
		})
	}
	return sys, nil
}

// Servers returns the deployed servers.
func (s *System) Servers() []*Server { return s.servers }

// Gate exposes the version gate (for workflow coordination).
func (s *System) Gate() *staging.Gate { return s.gate }

// DefineDims declares a variable's global dimensions (define_gdim). It
// computes the server-side staging regions and, under HashSFC, charges
// every server its share of the padded SFC index space — the superlinear
// memory cost of Figure 6. The call fails with hpc.ErrOutOfNodeMemory
// when the index does not fit.
func (s *System) DefineDims(varName string, global ndarray.Box) error {
	regions, err := ndarray.StagingRegions(global, len(s.servers))
	if err != nil {
		return fmt.Errorf("dataspaces define %s: %w", varName, err)
	}
	s.global[varName] = global
	s.regions[varName] = regions
	if s.cfg.Hash != HashSFC {
		return nil
	}
	// Strictly-greater padding per the paper: 2^k > longest extent.
	longest := global.Dims()[ndarray.LongestDim(global)]
	k := sfc.BitsFor(longest)
	if uint64(1)<<uint(k) == longest {
		k++
	}
	cells := 1.0
	for i := 0; i < global.Rank(); i++ {
		cells *= float64(uint64(1) << uint(k))
	}
	perServer := int64(cells * SFCIndexBytesPerCell / float64(len(s.servers)))
	for _, srv := range s.servers {
		if err := s.m.Alloc(srv.Node, srv.comp, "index", perServer); err != nil {
			return fmt.Errorf("dataspaces SFC index for %s: %w", varName, err)
		}
	}
	return nil
}

// Regions returns the staging regions of a defined variable.
func (s *System) Regions(varName string) ([]ndarray.Box, error) {
	r, ok := s.regions[varName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUndefinedVar, varName)
	}
	return r, nil
}

// IndexBytes returns server i's index memory.
func (s *System) IndexBytes(i int) int64 {
	return s.m.Mem.Component(s.servers[i].comp).CurrentOf("index")
}

// Detector returns the failure detector driving failover (nil when
// replication is off).
func (s *System) Detector() *staging.Detector { return s.cfg.Detector }

// RecoveryStats reports what re-replication did: objects and bytes
// copied from survivors, and the time from the crash to the moment the
// replication factor was restored (detection latency included).
func (s *System) RecoveryStats() (recovered bool, objects int64, bytes int64, recoveryTime sim.Time) {
	return s.recovered, s.recObjects, s.recBytes, s.recTime
}

// count bumps a resilience counter when telemetry is on.
func (s *System) count(name string, delta float64) {
	if reg := s.m.Metrics; reg != nil {
		reg.Counter(name).Add(delta)
	}
}

// replicaChain returns the servers holding region i's objects: the
// region's primary plus Replication-1 replicas, walking the server list
// so every chain member sits on a distinct node. Without replication
// the chain is a one-server window on the server list, capped so an
// append copies it.
func (s *System) replicaChain(i int) []*Server {
	k := ndarray.RegionServer(i, len(s.servers))
	if s.cfg.Replication <= 1 {
		return s.servers[k : k+1 : k+1]
	}
	primary := s.servers[k]
	chain := []*Server{primary}
	nodes := map[*hpc.Node]bool{primary.Node: true}
	for off := 1; off < len(s.servers) && len(chain) < s.cfg.Replication; off++ {
		cand := s.servers[(primary.ID+off)%len(s.servers)]
		if nodes[cand.Node] {
			continue
		}
		nodes[cand.Node] = true
		chain = append(chain, cand)
	}
	return chain
}

// candidates returns every server that may hold region i of varName:
// the static replica chain plus any replacement replicas recovery
// installed.
func (s *System) candidates(varName string, i int) []*Server {
	chain := s.replicaChain(i)
	if extra := s.extras[regionKey{varName, i}]; len(extra) > 0 {
		return append(chain, extra...)
	}
	return chain
}

// regionKey names one staging region of one variable.
type regionKey struct {
	varName string
	i       int
}

// usable decides whether a client/server process should talk to srv,
// paying the RPC-timeout cost of discovering an undeclared crash the
// hard way. suspects is the caller's private memory of nodes it has
// already timed out on (nil to always pay).
func (s *System) usable(p *sim.Proc, srv *Server, suspects map[*hpc.Node]bool) (bool, error) {
	det := s.cfg.Detector
	if !srv.Node.Failed() {
		return true, nil
	}
	if det != nil && det.Dead(srv.Node) {
		return false, nil // detector already declared it; skip for free
	}
	if suspects != nil && suspects[srv.Node] {
		return false, nil
	}
	// Crashed but not yet declared: the caller's RPC times out.
	if det != nil {
		s.count("resilience/failover/timeouts", 1)
		if err := p.Sleep(det.ClientTimeout()); err != nil {
			return false, err
		}
	}
	if suspects != nil {
		suspects[srv.Node] = true
	}
	return false, nil
}

// recover re-replicates every object the dead node held, copying from
// surviving chain members to replacement servers on distinct nodes, so
// the replication factor is restored before a second failure can bite.
// It runs as its own process, spawned at detection time.
func (s *System) recover(p *sim.Proc, n *hpc.Node) error {
	vars := make([]string, 0, len(s.regions))
	for v := range s.regions {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, varName := range vars {
		for i := range s.regions[varName] {
			if err := s.recoverRegion(p, n, varName, i); err != nil {
				// Recovery is best-effort: a second failure mid-copy must not
				// abort the whole simulation.
				s.count("resilience/recovery_errors", 1)
				return nil
			}
		}
	}
	s.recovered = true
	s.recTime = s.m.E.Now() - n.FailedAt()
	if reg := s.m.Metrics; reg != nil {
		reg.Histogram("resilience/recovery_time_s").Observe(float64(s.recTime))
	}
	return nil
}

// recoverRegion restores region i of varName if the dead node hosted
// one of its chain members: pick the first surviving member as source,
// a fresh server on an unused node as target, and copy every stored
// version across the network.
func (s *System) recoverRegion(p *sim.Proc, n *hpc.Node, varName string, i int) error {
	chain := s.replicaChain(i)
	hit := false
	used := make(map[*hpc.Node]bool)
	var source *Server
	for _, srv := range chain {
		used[srv.Node] = true
		if srv.Node == n {
			hit = true
		} else if source == nil && !srv.Node.Failed() {
			source = srv
		}
	}
	if !hit {
		return nil
	}
	rk := regionKey{varName, i}
	for _, srv := range s.extras[rk] {
		used[srv.Node] = true
		if source == nil && !srv.Node.Failed() {
			source = srv
		}
	}
	if source == nil {
		s.count("resilience/lost_regions", 1)
		return nil
	}
	var target *Server
	for off := 1; off <= len(s.servers); off++ {
		cand := s.servers[(chain[0].ID+off)%len(s.servers)]
		if cand.Node.Failed() || used[cand.Node] {
			continue
		}
		target = cand
		break
	}
	if target == nil {
		s.count("resilience/lost_regions", 1)
		return nil
	}
	region := s.regions[varName][i]
	for _, key := range source.Store.Keys() {
		if key.Var != varName {
			continue
		}
		for _, blk := range source.Store.Blocks(key) {
			if !blk.Box.Overlaps(region) {
				continue
			}
			if err := source.EP.Send(p, target.EP, blk.Bytes(), transport.SendOpts{}); err != nil {
				return err
			}
			if err := target.Store.Put(key, blk); err != nil {
				return err
			}
			s.recObjects++
			s.recBytes += blk.Bytes()
			s.count("resilience/rereplication/objects", 1)
			s.count("resilience/rereplication/bytes", float64(blk.Bytes()))
		}
	}
	s.extras[rk] = append(s.extras[rk], target)
	return nil
}

// applyMitigations configures the Table IV resolves on an endpoint.
func applyMitigations(ep *transport.Endpoint, cfg Config) {
	if cfg.WaitRetry {
		ep.WithWaitRetry()
	}
	if cfg.SocketPool > 0 {
		ep.WithSocketPool(cfg.SocketPool)
	}
}

// Client is one application process's connection to the space.
type Client struct {
	sys  *System
	ep   *transport.Endpoint
	name string
	// suspect remembers nodes this client has timed out on, so the RPC
	// timeout of an undeclared crash is paid once, not per message.
	suspect map[*hpc.Node]bool
	// parts is Get's scratch list of fetched blocks, reused across gets
	// and cleared after each so it pins no payload. A get in progress
	// holds it, and leaves nil here.
	parts []ndarray.Block
}

// NewClient attaches a client on the given node. perStepBytes sizes the
// client library's internal buffers (ClientBaseBytes +
// ClientBufFactor x perStepBytes, the ~227 MB of Figure 5a).
func (s *System) NewClient(node *hpc.Node, job, name string, perStepBytes int64) (*Client, error) {
	c := &Client{
		sys:     s,
		ep:      transport.NewEndpoint(s.m, node, job, name, s.cfg.Mode),
		name:    name,
		suspect: make(map[*hpc.Node]bool),
	}
	applyMitigations(c.ep, s.cfg)
	lib := ClientBaseBytes + int64(ClientBufFactor*float64(perStepBytes))
	if err := s.m.Alloc(node, name, "library", lib); err != nil {
		return nil, err
	}
	return c, nil
}

// Init acquires transport credentials (DRC on Cori — a flood of Init
// calls from a large job is what overwhelms the DRC) and attaches the
// client to every staging server (DART bootstrap); at very large scales
// the servers' peer-mailbox handlers run out (Section III-B1).
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

// Put stages the block into the shared space (dspaces_put). The client
// walks its data region from beginning to end, sending each sub-region to
// the server owning the corresponding staging region *in region order* —
// single-threaded, exactly as the paper describes — so when every
// writer's first sub-region lands on server 0, access is N-to-1.
// Each receiving server that sees a new version forwards a descriptor
// update to its peers, and the client registers the object with the
// key's DHT home server (the metadata traffic whose connections the
// paper found depleting socket descriptors, Section III-B5).
func (c *Client) Put(p *sim.Proc, varName string, version int, blk ndarray.Block) error {
	regions, err := c.sys.Regions(varName)
	if err != nil {
		return err
	}
	if reg := c.sys.m.Metrics; reg != nil {
		g := reg.SampledGauge(c.sys.cfg.Name + "/puts_inflight")
		g.Add(1)
		defer g.Add(-1)
	}
	key := staging.Key{Var: varName, Version: version}
	for i, region := range regions {
		overlap, ok := blk.Box.Intersect(region)
		if !ok {
			continue
		}
		sub, err := blk.Sub(overlap)
		if err != nil {
			return err
		}
		stored := 0
		for rank, srv := range c.sys.candidates(varName, i) {
			if c.sys.cfg.Replication > 1 {
				ok, err := c.sys.usable(p, srv, c.suspect)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			if err := c.sys.m.Retry.Do(p, "ds/put", func() error {
				return c.putOne(p, srv, key, sub)
			}); err != nil {
				return fmt.Errorf("dataspaces put %s v%d: %w", varName, version, err)
			}
			stored++
			if rank > 0 {
				c.sys.count("resilience/replication/objects", 1)
				c.sys.count("resilience/replication/bytes", float64(sub.Bytes()))
			}
		}
		if stored == 0 {
			return fmt.Errorf("dataspaces put %s v%d: no usable replica for region %d: %w",
				varName, version, i, hpc.ErrNodeFailed)
		}
	}
	// Register the object descriptor with the key's DHT home server (the
	// first live server after it on the ring when replication is on).
	home := c.sys.homeServer(key)
	if c.sys.cfg.Replication > 1 && home.Node.Failed() {
		home = c.sys.nextAlive(home)
		if home == nil {
			return fmt.Errorf("dataspaces put %s v%d (metadata): %w", varName, version, hpc.ErrNodeFailed)
		}
	}
	if err := c.ep.Send(p, home.EP, metaMsgBytes, transport.SendOpts{}); err != nil {
		return fmt.Errorf("dataspaces put %s v%d (metadata): %w", varName, version, err)
	}
	return nil
}

// putOne stores one sub-block on one server: wire transfer, store
// admission, peer metadata sync on a new key, and the index entry.
func (c *Client) putOne(p *sim.Proc, srv *Server, key staging.Key, sub ndarray.Block) error {
	if err := c.ep.Send(p, srv.EP, sub.Bytes(), transport.SendOpts{}); err != nil {
		return err
	}
	newKey := srv.Store.BytesStored(key) == 0
	if err := srv.Store.Put(key, sub); err != nil {
		return err
	}
	if newKey {
		if err := c.sys.syncPeers(p, srv, key); err != nil {
			return err
		}
	}
	if c.sys.cfg.Hash == HashBBox {
		if err := c.sys.m.Alloc(srv.Node, srv.comp, "index", BBoxEntryBytes); err != nil {
			return err
		}
	}
	return nil
}

// nextAlive walks the server ring after srv and returns the first
// server on a live node, or nil when every node is down.
func (s *System) nextAlive(srv *Server) *Server {
	for off := 1; off <= len(s.servers); off++ {
		cand := s.servers[(srv.ID+off)%len(s.servers)]
		if !cand.Node.Failed() {
			return cand
		}
	}
	return nil
}

// homeServer hashes a key onto its DHT home server.
func (s *System) homeServer(key staging.Key) *Server {
	h := uint64(1469598103934665603)
	for _, ch := range key.Var {
		h = (h ^ uint64(ch)) * 1099511628211
	}
	h ^= uint64(key.Version)
	return s.servers[h%uint64(len(s.servers))]
}

// syncPeers sends a descriptor update from srv to every peer server (the
// first time srv stores a version): the server-to-server metadata
// traffic of Section III-B5.
func (s *System) syncPeers(p *sim.Proc, srv *Server, key staging.Key) error {
	for _, peer := range s.servers {
		if peer == srv || peer.Node.Failed() {
			continue
		}
		if err := srv.EP.Send(p, peer.EP, metaMsgBytes, transport.SendOpts{}); err != nil {
			return fmt.Errorf("dataspaces metadata sync %s v%d: %w", key.Var, key.Version, err)
		}
	}
	return nil
}

// Commit releases version for readers (dspaces_unlock_on_write); every
// writer must commit before readers proceed.
func (c *Client) Commit(varName string, version int) {
	c.sys.gate.Commit(staging.Key{Var: varName, Version: version})
}

// Get retrieves box of version (dspaces_lock_on_read + dspaces_get): it
// blocks until the version is fully committed, then pulls each
// intersecting staging region from its server in region order.
func (c *Client) Get(p *sim.Proc, varName string, version int, box ndarray.Box) (ndarray.Block, error) {
	regions, err := c.sys.Regions(varName)
	if err != nil {
		return ndarray.Block{}, err
	}
	if reg := c.sys.m.Metrics; reg != nil {
		g := reg.SampledGauge(c.sys.cfg.Name + "/gets_inflight")
		g.Add(1)
		defer g.Add(-1)
	}
	key := staging.Key{Var: varName, Version: version}
	if err := c.sys.gate.WaitReady(p, key); err != nil {
		return ndarray.Block{}, err
	}
	// Take the client's buffer for this get, so a second get running
	// meanwhile on the same client starts its own.
	parts := c.parts[:0]
	c.parts = nil
	defer func() {
		// Up to cap: a failed attempt's blocks may sit past len.
		clear(parts[:cap(parts)])
		c.parts = parts[:0]
	}()
	for i, region := range regions {
		overlap, ok := box.Intersect(region)
		if !ok {
			continue
		}
		parts, err = appendRetried(p, c.sys.m.Retry, "ds/get", parts, func(dst []ndarray.Block) ([]ndarray.Block, error) {
			return c.getRegion(p, dst, varName, i, key, overlap)
		})
		if err != nil {
			return ndarray.Block{}, fmt.Errorf("dataspaces get %s v%d: %w", varName, version, err)
		}
	}
	out, err := ndarray.Assemble(box, parts)
	if err != nil {
		return ndarray.Block{}, fmt.Errorf("dataspaces get %s v%d: %w", varName, version, err)
	}
	return out, nil
}

// appendRetried runs fetch under the retry policy r as operation op,
// appending what it fetches to dst. Every attempt starts from the
// length dst had before the first: an attempt that fails after
// appending (its reply lost after the query) leaves nothing behind, so
// a retried region is never appended twice.
func appendRetried(p *sim.Proc, r *retry.Retrier, op string, dst []ndarray.Block,
	fetch func(dst []ndarray.Block) ([]ndarray.Block, error)) ([]ndarray.Block, error) {
	start := len(dst)
	err := r.Do(p, op, func() error {
		var err error
		dst, err = fetch(dst[:start])
		return err
	})
	return dst, err
}

// getRegion pulls one staging region's overlap from the first usable
// replica, appending its blocks to dst: the primary when it is alive,
// otherwise a surviving chain member or a replacement replica recovery
// installed (a failover read). After a failed send the returned slice
// still holds the queried blocks; appendRetried drops them.
func (c *Client) getRegion(p *sim.Proc, dst []ndarray.Block, varName string, i int, key staging.Key, overlap ndarray.Box) ([]ndarray.Block, error) {
	var lastErr error
	for rank, srv := range c.sys.candidates(varName, i) {
		if c.sys.cfg.Replication > 1 {
			ok, err := c.sys.usable(p, srv, c.suspect)
			if err != nil {
				return dst, err
			}
			if !ok {
				lastErr = fmt.Errorf("region %d replica %d on %s: %w", i, rank, srv.Node.Name(), hpc.ErrNodeFailed)
				continue
			}
		}
		out, err := srv.Store.QueryAppend(dst, key, overlap)
		if err != nil {
			if c.sys.cfg.Replication > 1 && errors.Is(err, staging.ErrNotFound) {
				lastErr = err // e.g. a replacement replica that missed this key
				continue
			}
			return dst, err
		}
		var bytes int64
		for _, b := range out[len(dst):] {
			bytes += b.Bytes()
		}
		if err := srv.EP.Send(p, c.ep, bytes, transport.SendOpts{}); err != nil {
			return out, err
		}
		if rank > 0 {
			c.sys.count("resilience/failover/gets", 1)
		}
		return out, nil
	}
	if lastErr == nil {
		lastErr = hpc.ErrNodeFailed
	}
	return dst, lastErr
}

// Close releases the client's transport state.
func (c *Client) Close() { c.ep.Close() }

// Shutdown tears down all servers, freeing staged data and base memory.
func (s *System) Shutdown() {
	for _, srv := range s.servers {
		srv.Store.Close()
		srv.EP.Close()
		s.m.Free(srv.Node, srv.comp, "base", ServerBaseBytes)
		s.m.Free(srv.Node, srv.comp, "index", s.m.Mem.Component(srv.comp).CurrentOf("index"))
	}
}
