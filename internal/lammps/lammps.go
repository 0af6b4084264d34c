// Package lammps is a miniature LAMMPS: a Lennard-Jones molecular
// dynamics simulation of the melt benchmark (the workflow of Table II),
// plus the mean-squared-displacement (MSD) analytics it is coupled with.
//
// Dense mode runs real physics — an LJ fluid in reduced units integrated
// with velocity Verlet under periodic boundaries — at a scaled-down atom
// count, so the MSD computed from *staged* data can be verified against
// the trajectory itself. At paper scale (512,000 atoms per processor) the
// output blocks are synthetic and only the calibrated compute-cost model
// matters.
//
// The staged output matches the paper's layout: a
// 5 x nprocs x atomsPerRank double array (per atom: x, y, z unwrapped
// positions and vx, vy velocities), decomposed along dimension 1 — which
// is NOT the longest dimension, triggering DataSpaces' decomposition
// mismatch (Figure 8).
package lammps

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/imcstudy/imcstudy/internal/ndarray"
)

// Paper-scale constants (Table II).
const (
	// PaperAtomsPerRank is the per-processor atom count implied by the
	// 5 x nprocs x 512000 output of Table II (20 MB per processor).
	PaperAtomsPerRank = 512000
	// Properties is the number of per-atom values staged.
	Properties = 5
	// PaperStepsPerOutput is the MD steps between staged outputs.
	PaperStepsPerOutput = 100
	// CostPerAtomStep is the Titan-seconds of compute per atom per MD step
	// (neighbour search + LJ force + integration).
	CostPerAtomStep = 2.0e-7
	// MSDCostPerAtom is the Titan-seconds of analytics compute per atom
	// per snapshot.
	MSDCostPerAtom = 1.0e-7
)

// SimSecondsPerOutput returns the calibrated Titan-seconds of simulation
// compute per rank between two staged outputs at paper scale.
func SimSecondsPerOutput() float64 {
	return PaperStepsPerOutput * PaperAtomsPerRank * CostPerAtomStep
}

// MSDSecondsPerOutput returns the calibrated Titan-seconds of MSD compute
// for one analytics rank consuming atomsRead atoms.
func MSDSecondsPerOutput(atomsRead int64) float64 {
	return float64(atomsRead) * MSDCostPerAtom
}

// GlobalBox returns the staged output's global dimensions for nprocs
// simulation ranks with the given atoms per rank.
func GlobalBox(nprocs, atoms int) ndarray.Box {
	return ndarray.WholeArray([]uint64{Properties, uint64(nprocs), uint64(atoms)})
}

// WriterBox returns the output box owned by simulation rank i.
func WriterBox(nprocs, rank, atoms int) ndarray.Box {
	b := GlobalBox(nprocs, atoms)
	b.Lo[1] = uint64(rank)
	b.Hi[1] = uint64(rank + 1)
	return b
}

// ReaderBox returns the box analytics rank i of nReaders consumes
// (contiguous groups of simulation ranks).
func ReaderBox(nprocs, nReaders, rank, atoms int) ndarray.Box {
	per := nprocs / nReaders
	rem := nprocs % nReaders
	lo := rank*per + min(rank, rem)
	size := per
	if rank < rem {
		size++
	}
	b := GlobalBox(nprocs, atoms)
	b.Lo[1] = uint64(lo)
	b.Hi[1] = uint64(lo + size)
	return b
}

// Config tunes a dense-mode simulation rank.
type Config struct {
	// Atoms per rank (dense mode uses a small count, e.g. 125).
	Atoms int
	// Density is the reduced LJ density (melt benchmark: 0.8442).
	Density float64
	// Temp is the initial reduced temperature (melt: 3.0).
	Temp float64
	// Dt is the integration timestep (0.005 tau).
	Dt float64
	// Cutoff is the LJ interaction cutoff (2.5 sigma).
	Cutoff float64
	// StepsPerOutput is MD steps between snapshots.
	StepsPerOutput int
	// Seed randomizes initial velocities.
	Seed int64
}

// DefaultConfig returns the melt benchmark parameters at a laptop-scale
// atom count.
func DefaultConfig() Config {
	return Config{
		Atoms:          125,
		Density:        0.8442,
		Temp:           3.0,
		Dt:             0.005,
		Cutoff:         2.5,
		StepsPerOutput: 10,
		Seed:           1,
	}
}

// Sim is one rank's Lennard-Jones system (each rank simulates an
// independent periodic box, as the coupling study only cares about the
// staged data's shape and values).
type Sim struct {
	cfg Config
	n   int
	l   float64 // box edge
	pos []float64
	vel []float64
	frc []float64
}

// NewSim builds the initial state: atoms on a cubic lattice at the target
// density with Maxwell-distributed velocities (zero net momentum).
func NewSim(cfg Config, rank int) (*Sim, error) {
	if cfg.Atoms <= 0 {
		return nil, fmt.Errorf("lammps: %d atoms", cfg.Atoms)
	}
	if cfg.Density <= 0 || cfg.Dt <= 0 || cfg.Cutoff <= 0 {
		return nil, fmt.Errorf("lammps: bad parameters %+v", cfg)
	}
	s := &Sim{
		cfg: cfg,
		n:   cfg.Atoms,
		l:   math.Cbrt(float64(cfg.Atoms) / cfg.Density),
		pos: make([]float64, 3*cfg.Atoms),
		vel: make([]float64, 3*cfg.Atoms),
		frc: make([]float64, 3*cfg.Atoms),
	}
	// Simple cubic lattice.
	side := int(math.Ceil(math.Cbrt(float64(cfg.Atoms))))
	a := s.l / float64(side)
	i := 0
	for x := 0; x < side && i < s.n; x++ {
		for y := 0; y < side && i < s.n; y++ {
			for z := 0; z < side && i < s.n; z++ {
				s.pos[3*i] = (float64(x) + 0.5) * a
				s.pos[3*i+1] = (float64(y) + 0.5) * a
				s.pos[3*i+2] = (float64(z) + 0.5) * a
				i++
			}
		}
	}
	// Maxwell velocities at the target temperature, net momentum removed.
	rng := rand.New(rand.NewSource(cfg.Seed + int64(rank)*7919))
	sigma := math.Sqrt(cfg.Temp)
	var px, py, pz float64
	for i := 0; i < s.n; i++ {
		s.vel[3*i] = rng.NormFloat64() * sigma
		s.vel[3*i+1] = rng.NormFloat64() * sigma
		s.vel[3*i+2] = rng.NormFloat64() * sigma
		px += s.vel[3*i]
		py += s.vel[3*i+1]
		pz += s.vel[3*i+2]
	}
	for i := 0; i < s.n; i++ {
		s.vel[3*i] -= px / float64(s.n)
		s.vel[3*i+1] -= py / float64(s.n)
		s.vel[3*i+2] -= pz / float64(s.n)
	}
	s.forces()
	return s, nil
}

// N returns the atom count.
func (s *Sim) N() int { return s.n }

// BoxEdge returns the periodic box edge length.
func (s *Sim) BoxEdge() float64 { return s.l }

// forces computes LJ forces with the minimum-image convention.
func (s *Sim) forces() {
	for i := range s.frc {
		s.frc[i] = 0
	}
	rc2 := s.cfg.Cutoff * s.cfg.Cutoff
	for i := 0; i < s.n; i++ {
		for j := i + 1; j < s.n; j++ {
			dx := s.minImage(s.pos[3*i] - s.pos[3*j])
			dy := s.minImage(s.pos[3*i+1] - s.pos[3*j+1])
			dz := s.minImage(s.pos[3*i+2] - s.pos[3*j+2])
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			// f = 24 eps (2 (sigma/r)^12 - (sigma/r)^6) / r^2 * rvec
			f := 24 * inv2 * inv6 * (2*inv6 - 1)
			s.frc[3*i] += f * dx
			s.frc[3*i+1] += f * dy
			s.frc[3*i+2] += f * dz
			s.frc[3*j] -= f * dx
			s.frc[3*j+1] -= f * dy
			s.frc[3*j+2] -= f * dz
		}
	}
}

func (s *Sim) minImage(d float64) float64 {
	return d - s.l*math.Round(d/s.l)
}

// Step advances one velocity-Verlet timestep. Positions are kept
// unwrapped (LAMMPS xu/yu/zu) so MSD is meaningful; forces use the
// minimum image.
func (s *Sim) Step() {
	dt := s.cfg.Dt
	half := 0.5 * dt
	for i := 0; i < 3*s.n; i++ {
		s.vel[i] += half * s.frc[i]
		s.pos[i] += dt * s.vel[i]
	}
	s.forces()
	for i := 0; i < 3*s.n; i++ {
		s.vel[i] += half * s.frc[i]
	}
}

// Advance runs StepsPerOutput timesteps (one coupling interval).
func (s *Sim) Advance() {
	for i := 0; i < s.cfg.StepsPerOutput; i++ {
		s.Step()
	}
}

// KineticTemp returns the instantaneous reduced temperature.
func (s *Sim) KineticTemp() float64 {
	var ke float64
	for i := 0; i < 3*s.n; i++ {
		ke += s.vel[i] * s.vel[i]
	}
	return ke / (3 * float64(s.n)) // m = 1, kB = 1
}

// TotalEnergy returns kinetic plus LJ potential energy (for conservation
// tests).
func (s *Sim) TotalEnergy() float64 {
	var ke float64
	for i := 0; i < 3*s.n; i++ {
		ke += 0.5 * s.vel[i] * s.vel[i]
	}
	rc2 := s.cfg.Cutoff * s.cfg.Cutoff
	// Energy-shifted LJ: subtracting the cutoff energy makes the
	// potential continuous, so crossings do not leak energy.
	rcInv6 := 1 / (rc2 * rc2 * rc2)
	shift := 4 * (rcInv6*rcInv6 - rcInv6)
	var pe float64
	for i := 0; i < s.n; i++ {
		for j := i + 1; j < s.n; j++ {
			dx := s.minImage(s.pos[3*i] - s.pos[3*j])
			dy := s.minImage(s.pos[3*i+1] - s.pos[3*j+1])
			dz := s.minImage(s.pos[3*i+2] - s.pos[3*j+2])
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			inv6 := 1 / (r2 * r2 * r2)
			pe += 4*(inv6*inv6-inv6) - shift
		}
	}
	return ke + pe
}

// Snapshot renders the rank's staged block for the given rank/nprocs
// layout: rows are (x, y, z, vx, vy), each of length atoms.
func (s *Sim) Snapshot(nprocs, rank int) (ndarray.Block, error) {
	box := WriterBox(nprocs, rank, s.n)
	data := make([]float64, Properties*s.n)
	for i := 0; i < s.n; i++ {
		data[0*s.n+i] = s.pos[3*i]
		data[1*s.n+i] = s.pos[3*i+1]
		data[2*s.n+i] = s.pos[3*i+2]
		data[3*s.n+i] = s.vel[3*i]
		data[4*s.n+i] = s.vel[3*i+1]
	}
	return ndarray.NewDenseBlock(box, data)
}

// MSDOf computes the rank's own mean squared displacement against the
// given reference positions (the direct, staging-free value used to
// verify analytics results).
func (s *Sim) MSDOf(refX, refY, refZ []float64) float64 {
	var sum float64
	for i := 0; i < s.n; i++ {
		dx := s.pos[3*i] - refX[i]
		dy := s.pos[3*i+1] - refY[i]
		dz := s.pos[3*i+2] - refZ[i]
		sum += dx*dx + dy*dy + dz*dz
	}
	return sum / float64(s.n)
}

// MSD is the coupled analytics: it receives staged snapshots covering a
// group of simulation ranks and computes the mean squared displacement
// against the first snapshot it saw.
type MSD struct {
	atoms int
	ref   []float64 // x,y,z rows of the first snapshot, per covered rank
	ranks int
}

// NewMSD creates the analytics for blocks covering `ranks` simulation
// ranks of `atoms` atoms each.
func NewMSD(ranks, atoms int) *MSD {
	return &MSD{atoms: atoms, ranks: ranks}
}

// Consume processes one staged snapshot block (shape
// Properties x ranks x atoms) and returns the MSD across all covered
// atoms. The first call defines the reference positions and returns 0.
func (m *MSD) Consume(blk ndarray.Block) (float64, error) {
	want := uint64(Properties * m.ranks * m.atoms)
	if blk.Box.NumElems() != want {
		return 0, fmt.Errorf("lammps msd: block has %d elems, want %d", blk.Box.NumElems(), want)
	}
	if !blk.Dense() {
		return 0, fmt.Errorf("lammps msd: synthetic block")
	}
	n := m.ranks * m.atoms
	if m.ref == nil {
		m.ref = append([]float64(nil), blk.Data[:3*n]...)
		return 0, nil
	}
	var sum float64
	for i := 0; i < 3*n; i++ {
		d := blk.Data[i] - m.ref[i]
		sum += d * d
	}
	return sum / float64(n), nil
}
