package workflow

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/adios"
	"github.com/imcstudy/imcstudy/internal/bp"
	"github.com/imcstudy/imcstudy/internal/dataspaces"
	"github.com/imcstudy/imcstudy/internal/decaf"
	"github.com/imcstudy/imcstudy/internal/dimes"
	"github.com/imcstudy/imcstudy/internal/flexpath"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/mpi"
	"github.com/imcstudy/imcstudy/internal/mpiio"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
)

// coupler is the method-specific data path between writers and readers.
type coupler interface {
	// initWriter/initReader run inside the rank's process at startup
	// (transport init: DRC credentials and the like).
	initWriter(p *sim.Proc, i int) error
	initReader(p *sim.Proc, r int) error
	// put stages writer i's block for a step; commit publishes it.
	put(p *sim.Proc, i, step int, blk ndarray.Block) error
	commit(i, step int)
	// get retrieves reader r's box of a step, returning the version it
	// actually delivered — the requested step, except when a resilient
	// coupler rolled back to an older durable version.
	get(p *sim.Proc, r, step int) (ndarray.Block, int, error)
	// shutdown tears the method down (frees servers).
	shutdown()
}

// layout is the placement computed by Run: nodes for each role.
type layout struct {
	simNodes    []*hpc.Node
	anaNodes    []*hpc.Node
	serverNodes []*hpc.Node
	// stagingNodes hold the method's staged data (the RoleStaging pool):
	// the server nodes, the simulation nodes for writer-side staging, or
	// none.
	stagingNodes []*hpc.Node
	// serversPerNode is the staging-server packing density for this
	// placement (shared mode spreads servers across the simulation nodes).
	serversPerNode int
	// node of each writer / reader rank.
	writerNode func(i int) *hpc.Node
	readerNode func(r int) *hpc.Node
}

// buildCoupler constructs the method's coupler. det is the failure
// detector driving replication failover (nil when replication is off);
// CheckpointEvery wraps methods that stage on compute nodes in the
// checkpoint-to-Lustre fallback.
func buildCoupler(cfg Config, m *hpc.Machine, d *driver, lay *layout, det *staging.Detector) (coupler, error) {
	row := cfg.Method.traits()
	inner, err := row.newCoupler(cfg, m, d, lay, det)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery > 0 && row.stages != stageNone {
		return newResilientCoupler(cfg, m, d, lay, inner), nil
	}
	return inner, nil
}

// nopCoupler backs the simulation-only and analytics-only baselines.
type nopCoupler struct{}

func newNopCoupler(Config, *hpc.Machine, *driver, *layout, *staging.Detector) (coupler, error) {
	return nopCoupler{}, nil
}

func (nopCoupler) initWriter(*sim.Proc, int) error { return nil }
func (nopCoupler) initReader(*sim.Proc, int) error { return nil }
func (nopCoupler) put(*sim.Proc, int, int, ndarray.Block) error {
	return nil
}
func (nopCoupler) commit(int, int) {}
func (nopCoupler) get(_ *sim.Proc, _, step int) (ndarray.Block, int, error) {
	return ndarray.Block{}, step, nil
}
func (nopCoupler) shutdown() {}

// adiosXML renders the generated ADIOS configuration for a variable and
// method (the XML file of Table I / Table III).
func adiosXML(varName string, dims []uint64, method adios.MethodKind, params string) string {
	dimStr := ""
	for i, d := range dims {
		if i > 0 {
			dimStr += ","
		}
		dimStr += fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf(`<adios-config>
  <adios-group name="coupling" stats="off">
    <var name="%s" dimensions="%s"/>
  </adios-group>
  <method group="coupling" method="%s">%s</method>
  <buffer size-MB="128"/>
</adios-config>`, varName, dimStr, method, params)
}

// dataSpacesCoupler couples through DataSpaces, natively or via ADIOS.
type dataSpacesCoupler struct {
	cfg     Config
	m       *hpc.Machine
	d       *driver
	sys     *dataspaces.System
	writers []*dataspaces.Client
	readers []*dataspaces.Client
	// ADIOS wrappers (nil for the native path).
	aw []*adios.Writer
	ar []*adios.Reader
}

func newDataSpacesCoupler(cfg Config, m *hpc.Machine, d *driver, lay *layout, det *staging.Detector) (coupler, error) {
	sys, err := dataspaces.Deploy(m, dataspaces.Config{
		Servers:        cfg.servers(),
		ServersPerNode: lay.serversPerNode,
		Mode:           cfg.transport(),
		MaxVersions:    1,
		Hash:           cfg.Hash,
		Writers:        cfg.SimProcs,
		WaitRetry:      cfg.RDMAWaitRetry,
		SocketPool:     cfg.SocketPoolSize,
		Replication:    cfg.Replication,
		Detector:       det,
	}, lay.serverNodes)
	if err != nil {
		return nil, err
	}
	if err := sys.DefineDims(d.varName, d.global); err != nil {
		return nil, err
	}
	c := &dataSpacesCoupler{cfg: cfg, m: m, d: d, sys: sys}
	for i := 0; i < cfg.SimProcs; i++ {
		cl, err := sys.NewClient(lay.writerNode(i), "sim", fmt.Sprintf("sim-%d", i), d.perStepBytes)
		if err != nil {
			return nil, err
		}
		c.writers = append(c.writers, cl)
	}
	for r := 0; r < cfg.AnaProcs; r++ {
		cl, err := sys.NewClient(lay.readerNode(r), "analytics", fmt.Sprintf("ana-%d", r), d.perStepBytes)
		if err != nil {
			return nil, err
		}
		c.readers = append(c.readers, cl)
	}
	if kind := cfg.Method.traits().adios; kind != 0 {
		xcfg, err := adios.ParseConfig([]byte(adiosXML(d.varName, d.global.Dims(), kind,
			"lock_type=2;hash_version=2;max_versions=1")))
		if err != nil {
			return nil, err
		}
		for i, cl := range c.writers {
			w, err := adios.NewWriter(m, lay.writerNode(i), xcfg, "coupling",
				fmt.Sprintf("sim-%d", i), &adios.DataSpacesTransport{Client: cl})
			if err != nil {
				return nil, err
			}
			c.aw = append(c.aw, w)
		}
		for _, cl := range c.readers {
			c.ar = append(c.ar, adios.NewReader(m, &adios.DataSpacesTransport{Client: cl}))
		}
	}
	return c, nil
}

func (c *dataSpacesCoupler) initWriter(p *sim.Proc, i int) error { return c.writers[i].Init(p) }
func (c *dataSpacesCoupler) initReader(p *sim.Proc, r int) error { return c.readers[r].Init(p) }

func (c *dataSpacesCoupler) put(p *sim.Proc, i, step int, blk ndarray.Block) error {
	if c.aw != nil {
		w := c.aw[i]
		if err := w.Open(step); err != nil {
			return err
		}
		if err := w.Write(p, c.d.varName, blk); err != nil {
			return err
		}
		return w.Close(p)
	}
	return c.writers[i].Put(p, c.d.varName, step, blk)
}

func (c *dataSpacesCoupler) commit(i, step int) {
	if c.aw != nil {
		return // adios.Writer.Close already committed
	}
	c.writers[i].Commit(c.d.varName, step)
}

func (c *dataSpacesCoupler) get(p *sim.Proc, r, step int) (ndarray.Block, int, error) {
	if c.ar != nil {
		c.ar[r].ScheduleRead(c.d.varName, c.d.readerBox(r))
		blocks, err := c.ar[r].PerformReads(p, step)
		if err != nil {
			return ndarray.Block{}, step, err
		}
		return blocks[0], step, nil
	}
	blk, err := c.readers[r].Get(p, c.d.varName, step, c.d.readerBox(r))
	return blk, step, err
}

func (c *dataSpacesCoupler) shutdown() { c.sys.Shutdown() }

func (c *dataSpacesCoupler) failGates(cause error) { c.sys.Gate().Fail(cause) }

func (c *dataSpacesCoupler) resilienceOutcome() resilienceOutcome {
	recovered, objects, bytes, t := c.sys.RecoveryStats()
	return resilienceOutcome{
		Recovered:    recovered,
		RecoveryTime: t,
		ReRepObjects: objects,
		ReRepBytes:   bytes,
	}
}

// dimesCoupler couples through DIMES, natively or via ADIOS.
type dimesCoupler struct {
	cfg     Config
	d       *driver
	sys     *dimes.System
	writers []*dimes.Client
	readers []*dimes.Client
	aw      []*adios.Writer
	ar      []*adios.Reader
}

func newDIMESCoupler(cfg Config, m *hpc.Machine, d *driver, lay *layout, _ *staging.Detector) (coupler, error) {
	row := cfg.Method.traits()
	bufBytes := cfg.RDMABufBytes
	if bufBytes == 0 {
		bufBytes = row.rdmaBufBytes
	}
	sys, err := dimes.Deploy(m, dimes.Config{
		MetaServers:        cfg.servers(),
		MetaServersPerNode: lay.serversPerNode,
		Mode:               cfg.transport(),
		MaxVersions:        1,
		RDMABufBytes:       bufBytes,
		Writers:            cfg.SimProcs,
	}, lay.serverNodes)
	if err != nil {
		return nil, err
	}
	c := &dimesCoupler{cfg: cfg, d: d, sys: sys}
	for i := 0; i < cfg.SimProcs; i++ {
		cl, err := sys.NewClient(lay.writerNode(i), "sim", fmt.Sprintf("sim-%d", i), d.perStepBytes)
		if err != nil {
			return nil, err
		}
		c.writers = append(c.writers, cl)
	}
	for r := 0; r < cfg.AnaProcs; r++ {
		cl, err := sys.NewClient(lay.readerNode(r), "analytics", fmt.Sprintf("ana-%d", r), d.perStepBytes)
		if err != nil {
			return nil, err
		}
		c.readers = append(c.readers, cl)
	}
	if row.adios != 0 {
		xcfg, err := adios.ParseConfig([]byte(adiosXML(d.varName, d.global.Dims(), row.adios,
			"max_versions=1")))
		if err != nil {
			return nil, err
		}
		for i, cl := range c.writers {
			w, err := adios.NewWriter(m, lay.writerNode(i), xcfg, "coupling",
				fmt.Sprintf("sim-%d", i), &adios.DIMESTransport{Client: cl})
			if err != nil {
				return nil, err
			}
			c.aw = append(c.aw, w)
		}
		for _, cl := range c.readers {
			c.ar = append(c.ar, adios.NewReader(m, &adios.DIMESTransport{Client: cl}))
		}
	}
	return c, nil
}

func (c *dimesCoupler) initWriter(p *sim.Proc, i int) error { return c.writers[i].Init(p) }
func (c *dimesCoupler) initReader(p *sim.Proc, r int) error { return c.readers[r].Init(p) }

func (c *dimesCoupler) put(p *sim.Proc, i, step int, blk ndarray.Block) error {
	if c.aw != nil {
		w := c.aw[i]
		if err := w.Open(step); err != nil {
			return err
		}
		if err := w.Write(p, c.d.varName, blk); err != nil {
			return err
		}
		return w.Close(p)
	}
	return c.writers[i].Put(p, c.d.varName, step, blk)
}

func (c *dimesCoupler) commit(i, step int) {
	if c.aw != nil {
		return
	}
	c.writers[i].Commit(c.d.varName, step)
}

func (c *dimesCoupler) get(p *sim.Proc, r, step int) (ndarray.Block, int, error) {
	if c.ar != nil {
		c.ar[r].ScheduleRead(c.d.varName, c.d.readerBox(r))
		blocks, err := c.ar[r].PerformReads(p, step)
		if err != nil {
			return ndarray.Block{}, step, err
		}
		return blocks[0], step, nil
	}
	blk, err := c.readers[r].Get(p, c.d.varName, step, c.d.readerBox(r))
	return blk, step, err
}

func (c *dimesCoupler) shutdown() { c.sys.Shutdown() }

func (c *dimesCoupler) failGates(cause error) { c.sys.Gate().Fail(cause) }

// flexpathCoupler couples through Flexpath behind ADIOS (its usual form).
type flexpathCoupler struct {
	cfg     Config
	d       *driver
	writers []*flexpath.Writer
	readers []*flexpath.Reader
	aw      []*adios.Writer
	ar      []*adios.Reader
}

func newFlexpathCoupler(cfg Config, m *hpc.Machine, d *driver, lay *layout, _ *staging.Detector) (coupler, error) {
	sys := flexpath.Deploy(m, flexpath.Config{
		Mode:      cfg.transport(),
		QueueSize: cfg.queueSize(),
	})
	c := &flexpathCoupler{cfg: cfg, d: d}
	xcfg, err := adios.ParseConfig([]byte(adiosXML(d.varName, d.global.Dims(), cfg.Method.traits().adios,
		"queue_size=1;CMTransport=nnti")))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.SimProcs; i++ {
		w, err := sys.NewWriter(lay.writerNode(i), "sim", fmt.Sprintf("sim-%d", i), d.perStepBytes)
		if err != nil {
			return nil, err
		}
		w.Declare(d.varName, d.writerBox(i))
		c.writers = append(c.writers, w)
		aw, err := adios.NewWriter(m, lay.writerNode(i), xcfg, "coupling",
			fmt.Sprintf("sim-%d", i), &adios.FlexpathWriterTransport{Writer: w})
		if err != nil {
			return nil, err
		}
		c.aw = append(c.aw, aw)
	}
	for r := 0; r < cfg.AnaProcs; r++ {
		rd, err := sys.NewReader(lay.readerNode(r), "analytics", fmt.Sprintf("ana-%d", r), d.perStepBytes)
		if err != nil {
			return nil, err
		}
		rd.Subscribe(d.varName, d.readerBox(r))
		c.readers = append(c.readers, rd)
		c.ar = append(c.ar, adios.NewReader(m, &adios.FlexpathReaderTransport{Reader: rd}))
	}
	return c, nil
}

func (c *flexpathCoupler) initWriter(p *sim.Proc, i int) error { return c.writers[i].Init(p) }
func (c *flexpathCoupler) initReader(p *sim.Proc, r int) error { return c.readers[r].Init(p) }

func (c *flexpathCoupler) put(p *sim.Proc, i, step int, blk ndarray.Block) error {
	w := c.aw[i]
	if err := w.Open(step); err != nil {
		return err
	}
	if err := w.Write(p, c.d.varName, blk); err != nil {
		return err
	}
	return w.Close(p)
}

func (c *flexpathCoupler) commit(int, int) {} // publication is the commit

func (c *flexpathCoupler) get(p *sim.Proc, r, step int) (ndarray.Block, int, error) {
	c.ar[r].ScheduleRead(c.d.varName, c.d.readerBox(r))
	blocks, err := c.ar[r].PerformReads(p, step)
	if err != nil {
		return ndarray.Block{}, step, err
	}
	return blocks[0], step, nil
}

func (c *flexpathCoupler) shutdown() {
	for _, w := range c.writers {
		w.Close()
	}
	for _, r := range c.readers {
		r.Close()
	}
}

// decafCoupler couples through the Decaf dataflow graph.
type decafCoupler struct {
	cfg       Config
	d         *driver
	sys       *decaf.System
	producers []*decaf.Client
	consumers []*decaf.Client
}

func newDecafCoupler(cfg Config, m *hpc.Machine, d *driver, lay *layout, _ *staging.Detector) (coupler, error) {
	g := decaf.NewGraph()
	g.AddNode("prod", decaf.RoleProducer, cfg.SimProcs)
	g.AddNode("dflow", decaf.RoleDflow, cfg.servers())
	g.AddNode("con", decaf.RoleConsumer, cfg.AnaProcs)
	g.AddEdge("prod", "dflow", decaf.RedistCount)
	g.AddEdge("dflow", "con", decaf.RedistCount)

	// One MPI world spanning producer, dflow and consumer rank ranges,
	// each pinned to its own node pool (Decaf wraps the whole workflow
	// into a single communicator).
	rpn := m.Spec().CoresPerNode
	perRank := make([]*hpc.Node, 0, g.TotalRanks())
	assign := func(count int, pool []*hpc.Node, perNode int) error {
		for i := 0; i < count; i++ {
			idx := i / perNode
			if idx >= len(pool) {
				return fmt.Errorf("workflow: decaf needs %d nodes, pool has %d", idx+1, len(pool))
			}
			perRank = append(perRank, pool[idx])
		}
		return nil
	}
	if err := assign(cfg.SimProcs, lay.simNodes, rpn); err != nil {
		return nil, err
	}
	if err := assign(cfg.servers(), lay.serverNodes, lay.serversPerNode); err != nil {
		return nil, err
	}
	if err := assign(cfg.AnaProcs, lay.anaNodes, rpn); err != nil {
		return nil, err
	}
	world, err := mpi.NewCommExplicit(m, perRank)
	if err != nil {
		return nil, err
	}
	sys, err := decaf.Deploy(m, g, world, cfg.SharedNode)
	if err != nil {
		return nil, err
	}
	sys.DefineVar(d.varName, uint64(cfg.SimProcs)*d.flatElemsPerWriter)
	c := &decafCoupler{cfg: cfg, d: d, sys: sys}
	for i, rank := range sys.Ranks("prod") {
		cl, err := sys.NewClient(rank, fmt.Sprintf("sim-%d", i), d.perStepBytes)
		if err != nil {
			return nil, err
		}
		c.producers = append(c.producers, cl)
	}
	for r, rank := range sys.Ranks("con") {
		cl, err := sys.NewClient(rank, fmt.Sprintf("ana-%d", r), d.perStepBytes)
		if err != nil {
			return nil, err
		}
		c.consumers = append(c.consumers, cl)
	}
	return c, nil
}

func (c *decafCoupler) initWriter(*sim.Proc, int) error { return nil } // MPI: no DRC path
func (c *decafCoupler) initReader(*sim.Proc, int) error { return nil }

func (c *decafCoupler) put(p *sim.Proc, i, step int, blk ndarray.Block) error {
	chunk := decaf.Chunk{
		Offset: uint64(i) * c.d.flatElemsPerWriter,
		Count:  c.d.flatElemsPerWriter,
		Data:   blk.Data,
	}
	return c.producers[i].Put(p, c.d.varName, step, chunk)
}

func (c *decafCoupler) commit(i, step int) {
	c.producers[i].Commit(c.d.varName, step)
}

func (c *decafCoupler) get(p *sim.Proc, r, step int) (ndarray.Block, int, error) {
	// Determine the contiguous writer group the reader covers and fetch
	// its flat range.
	first, count := readerWriterSpan(c.cfg.SimProcs, c.cfg.AnaProcs, r)
	offset := uint64(first) * c.d.flatElemsPerWriter
	elems := uint64(count) * c.d.flatElemsPerWriter
	chunk, err := c.consumers[r].Get(p, c.d.varName, step, offset, elems)
	if err != nil {
		return ndarray.Block{}, step, err
	}
	if chunk.Data == nil {
		return ndarray.NewSyntheticBlock(c.d.readerBox(r)), step, nil
	}
	// Rebuild the reader's box from the per-writer flat slices.
	parts := make([]ndarray.Block, 0, count)
	for w := 0; w < count; w++ {
		box := c.d.writerBox(first + w)
		lo := uint64(w) * c.d.flatElemsPerWriter
		blk, err := ndarray.NewDenseBlock(box, chunk.Data[lo:lo+c.d.flatElemsPerWriter])
		if err != nil {
			return ndarray.Block{}, step, err
		}
		parts = append(parts, blk)
	}
	out, err := ndarray.Assemble(c.d.readerBox(r), parts)
	return out, step, err
}

func (c *decafCoupler) shutdown() { c.sys.Shutdown() }

// readerWriterSpan returns the first writer and writer count reader r
// covers (contiguous groups, matching the workload ReaderBox functions).
func readerWriterSpan(nWriters, nReaders, r int) (first, count int) {
	per := nWriters / nReaders
	rem := nWriters % nReaders
	first = r*per + minInt(r, rem)
	count = per
	if r < rem {
		count++
	}
	return first, count
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// mpiioCoupler is the persistent-storage baseline: each step is a shared
// BP (binary-packed) file on the Lustre model, written collectively and
// post-processed by the analytics. The file contents are real: dense
// payloads round-trip through the BP encoder, so analytics decode exactly
// what the simulation wrote.
type mpiioCoupler struct {
	cfg Config
	d   *driver
	m   *hpc.Machine
	sys *mpiio.System
	lay *layout

	open  map[int]*bp.Writer // step -> file being written
	files map[int]*bp.Reader // step -> finalized file
}

func newMPIIOCoupler(cfg Config, m *hpc.Machine, d *driver, lay *layout, _ *staging.Detector) (coupler, error) {
	sys, err := mpiio.New(m, mpiio.Config{StripeCount: -1, Writers: cfg.SimProcs})
	if err != nil {
		return nil, err
	}
	return &mpiioCoupler{
		cfg:   cfg,
		d:     d,
		m:     m,
		sys:   sys,
		lay:   lay,
		open:  make(map[int]*bp.Writer),
		files: make(map[int]*bp.Reader),
	}, nil
}

func (c *mpiioCoupler) initWriter(*sim.Proc, int) error { return nil }
func (c *mpiioCoupler) initReader(*sim.Proc, int) error { return nil }

func (c *mpiioCoupler) put(p *sim.Proc, i, step int, blk ndarray.Block) error {
	if err := c.sys.WriteStep(p, c.lay.writerNode(i), i, step, blk.Bytes()); err != nil {
		return err
	}
	w, ok := c.open[step]
	if !ok {
		w = bp.NewWriter(false) // Table I: stats=off
		c.open[step] = w
	}
	return w.Write(c.d.varName, blk)
}

func (c *mpiioCoupler) commit(_, step int) {
	c.sys.Commit(c.d.varName, step)
}

func (c *mpiioCoupler) get(p *sim.Proc, r, step int) (ndarray.Block, int, error) {
	box := c.d.readerBox(r)
	if err := c.sys.ReadStep(p, c.lay.readerNode(r), c.d.varName, r, step, box.Bytes()); err != nil {
		return ndarray.Block{}, step, err
	}
	// ReadStep returns only after every writer committed, so the step
	// file can be finalized now.
	file, ok := c.files[step]
	if !ok {
		w := c.open[step]
		if w == nil {
			return ndarray.Block{}, step, fmt.Errorf("workflow: step %d file missing", step)
		}
		var err error
		file, err = bp.NewReader(w.Bytes())
		if err != nil {
			return ndarray.Block{}, step, err
		}
		c.files[step] = file
		delete(c.open, step)
	}
	blk, err := file.Read(c.d.varName, box)
	return blk, step, err
}

func (c *mpiioCoupler) shutdown() {}
