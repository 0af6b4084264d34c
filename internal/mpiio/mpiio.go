// Package mpiio models the file-I/O baseline of the study: simulation
// ranks dump each step to a shared file on Lustre through MPI-IO
// (collective writes, stripe-count -1 and 1 MiB stripes per Table I), and
// analytics ranks read the file back — classic post-processing through
// persistent storage. Its end-to-end time grows linearly with processor
// count because the OST pool and metadata servers are fixed (Figure 2).
package mpiio

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
)

// Config tunes the MPI-IO method.
type Config struct {
	// StripeCount is the Lustre stripe count (-1 = all OSTs, the paper's
	// setting).
	StripeCount int
	// Writers is the writer count gating step visibility for readers.
	Writers int
}

func (c Config) withDefaults() Config {
	if c.StripeCount == 0 {
		c.StripeCount = -1
	}
	return c
}

// System is the MPI-IO coupling: a shared file per step on the machine's
// Lustre filesystem.
type System struct {
	cfg  Config
	m    *hpc.Machine
	gate *staging.Gate
}

// New creates the MPI-IO coupler.
func New(m *hpc.Machine, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Writers <= 0 {
		return nil, fmt.Errorf("mpiio: %d writers", cfg.Writers)
	}
	return &System{cfg: cfg, m: m, gate: staging.NewGate(m.E, cfg.Writers)}, nil
}

// Gate exposes the step gate.
func (s *System) Gate() *staging.Gate { return s.gate }

// WriteStep writes one rank's bytes of the shared step file: a metadata
// operation (file open — N ranks through the machine's few MDS) followed
// by a derated shared-file striped write through the rank's NIC.
func (s *System) WriteStep(p *sim.Proc, node *hpc.Node, rank, step int, bytes int64) error {
	if err := s.m.FS.MetaOp(p); err != nil {
		return fmt.Errorf("mpiio write step %d rank %d: %w", step, rank, err)
	}
	offset := int64(rank) * bytes
	if err := s.m.FS.Write(p, offset, bytes, s.cfg.StripeCount, true, node.Out()); err != nil {
		return fmt.Errorf("mpiio write step %d rank %d: %w", step, rank, err)
	}
	return nil
}

// Commit marks one writer done with step (file close semantics).
func (s *System) Commit(varName string, step int) {
	s.gate.Commit(staging.Key{Var: varName, Version: step})
}

// ReadStep reads bytes of step back for analytics, blocking until every
// writer has closed the step file.
func (s *System) ReadStep(p *sim.Proc, node *hpc.Node, varName string, rank, step int, bytes int64) error {
	if err := s.gate.WaitReady(p, staging.Key{Var: varName, Version: step}); err != nil {
		return err
	}
	if err := s.m.FS.MetaOp(p); err != nil {
		return fmt.Errorf("mpiio read step %d rank %d: %w", step, rank, err)
	}
	offset := int64(rank) * bytes
	if err := s.m.FS.Read(p, offset, bytes, s.cfg.StripeCount, node.In()); err != nil {
		return fmt.Errorf("mpiio read step %d rank %d: %w", step, rank, err)
	}
	return nil
}
