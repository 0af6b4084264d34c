package workflow

import (
	"errors"
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
)

// resilienceOutcome is what a run's resilience machinery accomplished,
// read by Run after the engine drains.
type resilienceOutcome struct {
	Recovered    bool
	RecoveryTime sim.Time
	ReRepBytes   int64

	CkptWrites      int64
	CkptBytes       int64
	FallbackReads   int64
	RolledBackSteps int64
}

// resilienceReporter is implemented by couplers that can report a
// resilienceOutcome.
type resilienceReporter interface {
	resilienceOutcome() resilienceOutcome
}

// resilientCoupler wraps any staged coupler with the checkpoint-to-
// Lustre fallback: every CheckpointEvery-th version is persisted to the
// filesystem alongside the staged put, and when the staged path dies
// with a node, the coupling degrades gracefully — writers switch to
// writing steps to Lustre, readers fall back to the last durable
// version (rolling the coupling back if the exact step never became
// durable) instead of crashing the workflow.
type resilientCoupler struct {
	inner coupler
	cfg   Config
	m     *hpc.Machine
	d     *driver
	lay   *layout
	every int

	// stepDone is committed by every writer for every step regardless of
	// which path carried the data, so readers always learn when a step's
	// producers are done (or, via Fail, that they died).
	stepDone *staging.Gate
	// innerOK counts writers whose staged put of a step succeeded;
	// readers use the staged path only when all of them did.
	innerOK map[int]int
	// ckptCount counts writers whose checkpoint of a step reached
	// Lustre; a step is durable when every writer's did.
	ckptCount map[int]int
	// ckptBlocks holds the durable blocks per step for fallback reads.
	ckptBlocks map[int][]ndarray.Block
	// degraded marks writers that lost the staged path and now write
	// every step to Lustre.
	degraded map[int]bool

	stats resilienceOutcome
}

func newResilientCoupler(cfg Config, m *hpc.Machine, d *driver, lay *layout, inner coupler) *resilientCoupler {
	return &resilientCoupler{
		inner:      inner,
		cfg:        cfg,
		m:          m,
		d:          d,
		lay:        lay,
		every:      cfg.CheckpointEvery,
		stepDone:   staging.NewGate(m.E, cfg.SimProcs),
		innerOK:    make(map[int]int),
		ckptCount:  make(map[int]int),
		ckptBlocks: make(map[int][]ndarray.Block),
		degraded:   make(map[int]bool),
	}
}

func (rc *resilientCoupler) key(step int) staging.Key {
	return staging.Key{Var: rc.d.varName, Version: step}
}

func (rc *resilientCoupler) count(name string, delta float64) {
	if reg := rc.m.Metrics; reg != nil {
		reg.Counter(name).Add(delta)
	}
}

func (rc *resilientCoupler) initWriter(p *sim.Proc, i int) error { return rc.inner.initWriter(p, i) }
func (rc *resilientCoupler) initReader(p *sim.Proc, r int) error { return rc.inner.initReader(p, r) }

func (rc *resilientCoupler) put(p *sim.Proc, i, step int, blk ndarray.Block) error {
	if !rc.degraded[i] {
		err := rc.inner.put(p, i, step, blk)
		if err == nil {
			rc.innerOK[step]++
			if step%rc.every == 0 {
				return rc.checkpoint(p, i, step, blk)
			}
			return nil
		}
		if !errors.Is(err, hpc.ErrNodeFailed) {
			return err
		}
		// The staged path died with its node: degrade this writer to the
		// file-based path for the rest of the run.
		rc.degraded[i] = true
		rc.count("resilience/degraded_writers", 1)
	}
	return rc.checkpoint(p, i, step, blk)
}

// checkpoint persists one writer's block of a step to Lustre: the
// shared-file write pattern of the MPI-IO baseline, charged against the
// writer's NIC, plus the block kept for fallback reads.
func (rc *resilientCoupler) checkpoint(p *sim.Proc, i, step int, blk ndarray.Block) error {
	node := rc.lay.writerNode(i)
	if err := rc.m.FS.MetaOp(p); err != nil {
		return fmt.Errorf("checkpoint step %d writer %d: %w", step, i, err)
	}
	offset := int64(i) * blk.Bytes()
	if err := rc.m.FS.Write(p, offset, blk.Bytes(), -1, true, node.Out()); err != nil {
		return fmt.Errorf("checkpoint step %d writer %d: %w", step, i, err)
	}
	rc.ckptBlocks[step] = append(rc.ckptBlocks[step], blk)
	rc.ckptCount[step]++
	rc.stats.CkptWrites++
	rc.stats.CkptBytes += blk.Bytes()
	rc.count("resilience/checkpoint/writes", 1)
	rc.count("resilience/checkpoint/bytes", float64(blk.Bytes()))
	return nil
}

func (rc *resilientCoupler) commit(i, step int) {
	if !rc.degraded[i] {
		rc.inner.commit(i, step)
	}
	rc.stepDone.Commit(rc.key(step))
}

func (rc *resilientCoupler) get(p *sim.Proc, r, step int) (ndarray.Block, int, error) {
	if err := rc.stepDone.WaitReady(p, rc.key(step)); err != nil {
		if !errors.Is(err, hpc.ErrNodeFailed) {
			return ndarray.Block{}, step, err
		}
		// The step's producers died before finishing it; whatever is
		// durable is all there will ever be.
		return rc.fallbackGet(p, r, step)
	}
	if rc.innerOK[step] >= rc.cfg.SimProcs {
		blk, v, err := rc.inner.get(p, r, step)
		if err == nil {
			return blk, v, nil
		}
		if !errors.Is(err, hpc.ErrNodeFailed) && !errors.Is(err, staging.ErrNotFound) {
			return ndarray.Block{}, step, err
		}
		// Staged data was fully written but its node died before this
		// reader fetched it.
	}
	return rc.fallbackGet(p, r, step)
}

// fallbackGet serves a reader from the last durable checkpoint at or
// before the requested step — the graceful degradation to the
// file-based path. When the exact step never became durable the
// coupling rolls back: the reader consumes the older version and the
// returned version tells the verification layer which reference to
// check against.
func (rc *resilientCoupler) fallbackGet(p *sim.Proc, r, step int) (ndarray.Block, int, error) {
	v := -1
	for x := step; x >= 0; x-- {
		if rc.ckptCount[x] >= rc.cfg.SimProcs {
			v = x
			break
		}
	}
	if v < 0 {
		return ndarray.Block{}, step, fmt.Errorf(
			"workflow: no durable checkpoint at or before step %d: %w", step, hpc.ErrNodeFailed)
	}
	node := rc.lay.readerNode(r)
	box := rc.d.readerBox(r)
	if err := rc.m.FS.MetaOp(p); err != nil {
		return ndarray.Block{}, step, err
	}
	if err := rc.m.FS.Read(p, int64(r)*box.Bytes(), box.Bytes(), -1, node.In()); err != nil {
		return ndarray.Block{}, step, err
	}
	rc.stats.FallbackReads++
	rc.count("resilience/fallback/reads", 1)
	if v != step {
		rc.stats.RolledBackSteps += int64(step - v)
		rc.count("resilience/rollback/steps", float64(step-v))
	}
	var parts []ndarray.Block
	for _, b := range rc.ckptBlocks[v] {
		overlap, ok := b.Box.Intersect(box)
		if !ok {
			continue
		}
		sub, err := b.Sub(overlap)
		if err != nil {
			return ndarray.Block{}, step, err
		}
		parts = append(parts, sub)
	}
	out, err := ndarray.Assemble(box, parts)
	if err != nil {
		return ndarray.Block{}, step, fmt.Errorf("fallback read step %d from checkpoint v%d: %w", step, v, err)
	}
	return out, v, nil
}

func (rc *resilientCoupler) shutdown() { rc.inner.shutdown() }

func (rc *resilientCoupler) failGates(cause error) {
	rc.stepDone.Fail(cause)
	if gf, ok := rc.inner.(gateFailer); ok {
		gf.failGates(cause)
	}
}

func (rc *resilientCoupler) resilienceOutcome() resilienceOutcome {
	out := rc.stats
	if rr, ok := rc.inner.(resilienceReporter); ok {
		in := rr.resilienceOutcome()
		out.Recovered = in.Recovered
		out.RecoveryTime = in.RecoveryTime
		out.ReRepBytes = in.ReRepBytes
	}
	return out
}
