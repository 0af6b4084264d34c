package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/prof"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// The layer drivers below call one layer's public API directly, with
// counts and block shapes taken from the workload configuration, so a
// layer's cost is timed without the blocking calls of the other layers
// around it.

// counts records what a driver modelled, so the self-tests can check it
// against the configuration it claims to model.
type counts struct {
	flows, writers, readers, puts, queries int
	putBytes, gotBytes                     int64
}

// flowBytes is the size of driver flow i of n: one writer's payload,
// staggered by up to 2x so completions arrive one at a time and every
// completion re-rates the flows still active.
func flowBytes(i, n int) float64 {
	return float64(synthetic.PerWriterBytes()) * (1 + float64(i)/float64(n))
}

// netFlows starts cfg.SimProcs flows, each from its own source link,
// into one shared link (fanIn, the N-to-1 pattern) or each into its own
// link (the N-to-N pattern), and runs them to completion. It returns the
// host time per flow.
func netFlows(cfg workflow.Config, fanIn bool) (time.Duration, counts) {
	f := cfg.SimProcs
	rate := cfg.Machine.NICBytesPerSec
	start := time.Now()
	e := sim.NewEngine()
	n := e.NewNet()
	sink := n.NewLink("sink", rate)
	for i := 0; i < f; i++ {
		dst := sink
		if !fanIn {
			dst = n.NewLink(fmt.Sprintf("in-%d", i), rate)
		}
		n.StartFlowCapped(flowBytes(i, f), 0, n.NewLink(fmt.Sprintf("out-%d", i), rate), dst)
	}
	if err := e.Run(); err != nil {
		panic(fmt.Sprintf("net driver: %v", err)) // no process can fail here
	}
	return time.Since(start) / time.Duration(f), counts{flows: f}
}

// stagingStore times staging.Store.Put and Query on the workload's
// blocks. DataSpaces keeps each writer's block cut into the staging
// regions on the region's server store; DIMES keeps each writer's whole
// block in its own store and readers query the writers they overlap.
// It returns the host time per put and per query.
func stagingStore(cfg workflow.Config) (put, query time.Duration, c counts, err error) {
	sys, _, err := build(cfg)
	if err != nil {
		return 0, 0, c, err
	}
	global, err := synthetic.GlobalBox(cfg.SyntheticLayout, cfg.SimProcs)
	if err != nil {
		return 0, 0, c, err
	}
	key := staging.Key{Var: "payload", Version: 0}
	writerBox := func(i int) ndarray.Box {
		b, _ := synthetic.WriterBox(cfg.SyntheticLayout, cfg.SimProcs, i)
		return b
	}
	readerBox := func(r int) ndarray.Box {
		b, _ := synthetic.ReaderBox(cfg.SyntheticLayout, cfg.SimProcs, cfg.AnaProcs, r)
		return b
	}
	type op struct {
		store *staging.Store
		blk   ndarray.Block
	}
	var puts, queries []op
	if sys.ds != nil {
		if err := sys.ds.DefineDims("payload", global); err != nil {
			return 0, 0, c, err
		}
		regions, err := sys.ds.Regions("payload")
		if err != nil {
			return 0, 0, c, err
		}
		store := func(i int) *staging.Store {
			return sys.ds.Servers()[ndarray.RegionServer(i, len(sys.ds.Servers()))].Store
		}
		for w := 0; w < cfg.SimProcs; w++ {
			blk := ndarray.NewSyntheticBlock(writerBox(w))
			for i, region := range regions {
				if overlap, ok := blk.Box.Intersect(region); ok {
					sub, err := blk.Sub(overlap)
					if err != nil {
						return 0, 0, c, err
					}
					puts = append(puts, op{store(i), sub})
				}
			}
		}
		for r := 0; r < cfg.AnaProcs; r++ {
			for i, region := range regions {
				if overlap, ok := readerBox(r).Intersect(region); ok {
					queries = append(queries, op{store(i), ndarray.NewSyntheticBlock(overlap)})
				}
			}
		}
	} else {
		stores := make([]*staging.Store, cfg.SimProcs)
		for w := range stores {
			stores[w] = staging.NewStore(sys.m, sys.sim[w], fmt.Sprintf("sim-%d", w), "staging", 0, 0)
			puts = append(puts, op{stores[w], ndarray.NewSyntheticBlock(writerBox(w))})
		}
		for r := 0; r < cfg.AnaProcs; r++ {
			box := readerBox(r)
			for _, w := range overlappingWriters(cfg, box) {
				queries = append(queries, op{stores[w], ndarray.NewSyntheticBlock(box)})
			}
		}
	}
	start := time.Now()
	for _, p := range puts {
		if err := p.store.Put(key, p.blk); err != nil {
			return 0, 0, c, err
		}
		c.putBytes += p.blk.Bytes()
	}
	put = time.Since(start) / time.Duration(len(puts))
	start = time.Now()
	for _, q := range queries {
		blocks, err := q.store.Query(key, q.blk.Box)
		if err != nil {
			return 0, 0, c, err
		}
		for _, b := range blocks {
			c.gotBytes += b.Bytes()
		}
	}
	query = time.Since(start) / time.Duration(len(queries))
	c.writers, c.readers, c.puts, c.queries = cfg.SimProcs, cfg.AnaProcs, len(puts), len(queries)
	if c.putBytes != c.gotBytes {
		return 0, 0, c, fmt.Errorf("staging driver: put %d bytes, got %d", c.putBytes, c.gotBytes)
	}
	return put, query, c, nil
}

// overlappingWriters lists the writers whose block a reader box covers:
// the synthetic layouts give each reader a contiguous writer range along
// the scaling dimension.
func overlappingWriters(cfg workflow.Config, box ndarray.Box) []int {
	dim, unit := 1, uint64(1)
	if cfg.SyntheticLayout == synthetic.LayoutMatched {
		w, _ := synthetic.WriterBox(cfg.SyntheticLayout, cfg.SimProcs, 0)
		dim, unit = 2, w.Hi[2]
	}
	var out []int
	for w := box.Lo[dim] / unit; w < box.Hi[dim]/unit; w++ {
		out = append(out, int(w))
	}
	return out
}

// dimesGet deploys DIMES for the configuration, has every writer put one
// block and commit, then times the reader phase: every reader's Get of
// its box, each scanning the writers' metadata. It returns the host time
// per Get.
func dimesGet(cfg workflow.Config) (time.Duration, counts, error) {
	cfg.Method = workflow.MethodDIMESNative
	sys, _, err := build(cfg)
	if err != nil {
		return 0, counts{}, err
	}
	const varName = "payload"
	for i, cl := range sys.dmw {
		box, _ := synthetic.WriterBox(cfg.SyntheticLayout, cfg.SimProcs, i)
		sys.e.Spawn(fmt.Sprintf("sim-%d", i), func(p *sim.Proc) error {
			if err := cl.Init(p); err != nil {
				return err
			}
			if err := cl.Put(p, varName, 0, ndarray.NewSyntheticBlock(box)); err != nil {
				return err
			}
			cl.Commit(varName, 0)
			return nil
		})
	}
	for r, cl := range sys.dmr {
		sys.e.Spawn(fmt.Sprintf("ana-%d", r), cl.Init)
	}
	if err := sys.e.Run(); err != nil {
		return 0, counts{}, fmt.Errorf("dimes driver writer phase: %w", err)
	}
	c := counts{writers: len(sys.dmw), readers: len(sys.dmr)}
	got := make([]int64, len(sys.dmr))
	for r, cl := range sys.dmr {
		box, _ := synthetic.ReaderBox(cfg.SyntheticLayout, cfg.SimProcs, cfg.AnaProcs, r)
		sys.e.Spawn(fmt.Sprintf("ana-%d", r), func(p *sim.Proc) error {
			blk, err := cl.Get(p, varName, 0, box)
			got[r] = blk.Bytes()
			return err
		})
	}
	start := time.Now()
	if err := sys.e.Run(); err != nil {
		return 0, c, fmt.Errorf("dimes driver reader phase: %w", err)
	}
	elapsed := time.Since(start)
	for _, b := range got {
		c.gotBytes += b
	}
	c.putBytes = int64(cfg.SimProcs) * synthetic.PerWriterBytes()
	if c.putBytes != c.gotBytes {
		return 0, c, fmt.Errorf("dimes driver: put %d bytes, got %d", c.putBytes, c.gotBytes)
	}
	return elapsed / time.Duration(len(sys.dmr)), c, nil
}

// siteGroup names the layer of a journal site: the (*Net) methods are
// the fair-share solver "net"; everything else goes by its package.
func siteGroup(site string) string {
	if strings.HasPrefix(site, "sim.(*Net).") {
		return "net"
	}
	if i := strings.IndexByte(site, '.'); i > 0 {
		return site[:i]
	}
	return site
}

// siteRole names who runs a journal entry's host time. A rank process
// woken by an event runs its own coupler code (DataSpaces or DIMES
// client, transport sends, staging stores) until it blocks again, so
// every process wake is "ranks" whatever site scheduled it; engine
// callbacks are the solver at (*Net) sites and the scheduling package's
// model code elsewhere.
func siteRole(kind, site string) string {
	switch {
	case kind != "timer":
		return "ranks"
	case siteGroup(site) == "net":
		return "solver"
	default:
		return siteGroup(site) + " callbacks"
	}
}

// journal is the profiler journal of one or more runs, summed.
type journal struct {
	loopNs, overheadNs, events, hits, misses int64
	groupNs, groupAlloc, roleNs              map[string]int64
}

func (j *journal) add(p *prof.Profile) {
	if j.groupNs == nil {
		j.groupNs, j.groupAlloc, j.roleNs = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	j.loopNs += p.Walltime.WallNs
	j.overheadNs += p.Walltime.OverheadNs
	j.events += p.Deterministic.Events
	j.hits += p.Deterministic.PoolHits
	j.misses += p.Deterministic.PoolMisses
	for _, s := range p.Walltime.Sites {
		g := siteGroup(s.Site)
		j.groupNs[g] += s.WallNs
		j.groupAlloc[g] += s.AllocBytes
		j.roleNs[siteRole(s.Kind, s.Site)] += s.WallNs
	}
}
