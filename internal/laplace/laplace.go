// Package laplace is the study's second workflow (Table II): a
// computational-fluid-dynamics-style solver for Laplace's equation on a
// rectangle (Jacobi iteration with Dirichlet boundaries), coupled to an
// n-th-moment turbulence data analysis (MTA).
//
// Dense mode solves the PDE for real on a scaled-down grid — the solver
// is verified against analytic harmonic solutions — so MTA results
// computed from staged data can be checked against direct computation.
// At paper scale (4096 x 4096 doubles, 128 MB per processor) the blocks
// are synthetic and the calibrated cost model drives timing.
//
// The staged output is the global field of dimensions
// rows x (nprocs x cols), decomposed along dimension 1 (each rank owns a
// column slab). With square per-rank slabs the longest dimension IS the
// scaled dimension, so — unlike LAMMPS — the DataSpaces staging layout
// matches the decomposition.
package laplace

import (
	"fmt"
	"math"

	"github.com/imcstudy/imcstudy/internal/ndarray"
)

// Paper-scale constants (Table II).
const (
	// PaperRows and PaperCols are the per-processor grid (128 MB).
	PaperRows = 4096
	PaperCols = 4096
	// PaperItersPerOutput is Jacobi sweeps between staged outputs.
	PaperItersPerOutput = 50
	// CostPerCellIter is Titan-seconds per grid cell per Jacobi sweep
	// (5-point stencil).
	CostPerCellIter = 6.0e-9
	// MTACostPerCell is Titan-seconds of analytics compute per cell
	// (4 moment accumulations).
	MTACostPerCell = 2.0e-9
	// Moments is how many central moments MTA computes.
	Moments = 4
)

// SimSecondsPerOutput returns the calibrated Titan-seconds of solver
// compute per rank between two outputs at paper scale.
func SimSecondsPerOutput() float64 {
	return PaperItersPerOutput * PaperRows * PaperCols * CostPerCellIter
}

// MTASecondsPerOutput returns the calibrated Titan-seconds of MTA compute
// for one analytics rank consuming cells grid points.
func MTASecondsPerOutput(cells int64) float64 {
	return float64(cells) * MTACostPerCell
}

// GlobalBox returns the staged field's global dimensions for nprocs ranks
// with a rows x cols grid per rank (ranks own column slabs).
func GlobalBox(nprocs, rows, cols int) ndarray.Box {
	return ndarray.WholeArray([]uint64{uint64(rows), uint64(nprocs) * uint64(cols)})
}

// WriterBox returns the slab owned by rank i.
func WriterBox(nprocs, rank, rows, cols int) ndarray.Box {
	b := GlobalBox(nprocs, rows, cols)
	b.Lo[1] = uint64(rank) * uint64(cols)
	b.Hi[1] = uint64(rank+1) * uint64(cols)
	return b
}

// ReaderBox returns the slab analytics rank i of nReaders consumes.
func ReaderBox(nprocs, nReaders, rank, rows, cols int) ndarray.Box {
	per := nprocs / nReaders
	rem := nprocs % nReaders
	lo := rank*per + min(rank, rem)
	size := per
	if rank < rem {
		size++
	}
	b := GlobalBox(nprocs, rows, cols)
	b.Lo[1] = uint64(lo) * uint64(cols)
	b.Hi[1] = uint64(lo+size) * uint64(cols)
	return b
}

// Config tunes a dense-mode solver rank.
type Config struct {
	// Rows, Cols are the interior grid size per rank.
	Rows, Cols int
	// ItersPerOutput is Jacobi sweeps between snapshots.
	ItersPerOutput int
	// Boundary gives the Dirichlet value at global coordinates; it must be
	// defined on the domain boundary. Defaults to x+y (a harmonic
	// function, handy for verification).
	Boundary func(x, y float64) float64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Rows: 32, Cols: 32, ItersPerOutput: 50}
}

// Sim is one rank's Jacobi solver over its column slab. The slab's
// boundary values are taken from the global boundary function (ranks are
// independent; the coupling study does not need converged cross-rank
// halos).
type Sim struct {
	cfg        Config
	rank, npes int
	cur, next  []float64 // (rows+2) x (cols+2) with ghost ring
}

// NewSim builds the initial state: boundary set, interior zero.
func NewSim(cfg Config, nprocs, rank int) (*Sim, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("laplace: grid %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.ItersPerOutput <= 0 {
		return nil, fmt.Errorf("laplace: %d iters per output", cfg.ItersPerOutput)
	}
	if cfg.Boundary == nil {
		cfg.Boundary = func(x, y float64) float64 { return x + y }
	}
	s := &Sim{
		cfg:  cfg,
		rank: rank,
		npes: nprocs,
		cur:  make([]float64, (cfg.Rows+2)*(cfg.Cols+2)),
		next: make([]float64, (cfg.Rows+2)*(cfg.Cols+2)),
	}
	w := cfg.Cols + 2
	for i := 0; i < cfg.Rows+2; i++ {
		for j := 0; j < cfg.Cols+2; j++ {
			if i == 0 || i == cfg.Rows+1 || j == 0 || j == cfg.Cols+1 {
				x, y := s.globalXY(i, j)
				s.cur[i*w+j] = cfg.Boundary(x, y)
			}
		}
	}
	copy(s.next, s.cur)
	return s, nil
}

// globalXY maps local ghost-grid indices to global unit-square-ish
// coordinates (the global domain is [0,1] x [0,nprocs] in slab units).
func (s *Sim) globalXY(i, j int) (x, y float64) {
	x = float64(i) / float64(s.cfg.Rows+1)
	y = float64(s.rank) + float64(j)/float64(s.cfg.Cols+1)
	return x, y
}

// Sweep performs one Jacobi iteration and returns the max residual.
func (s *Sim) Sweep() float64 {
	w := s.cfg.Cols + 2
	var maxDiff float64
	for i := 1; i <= s.cfg.Rows; i++ {
		for j := 1; j <= s.cfg.Cols; j++ {
			v := 0.25 * (s.cur[(i-1)*w+j] + s.cur[(i+1)*w+j] + s.cur[i*w+j-1] + s.cur[i*w+j+1])
			d := math.Abs(v - s.cur[i*w+j])
			if d > maxDiff {
				maxDiff = d
			}
			s.next[i*w+j] = v
		}
	}
	s.cur, s.next = s.next, s.cur
	return maxDiff
}

// Advance runs ItersPerOutput sweeps (one coupling interval) and returns
// the final residual.
func (s *Sim) Advance() float64 {
	var res float64
	for i := 0; i < s.cfg.ItersPerOutput; i++ {
		res = s.Sweep()
	}
	return res
}

// SolveToTolerance sweeps until the residual drops below tol (capped at
// maxIters) and returns the iterations used.
func (s *Sim) SolveToTolerance(tol float64, maxIters int) int {
	for i := 1; i <= maxIters; i++ {
		if s.Sweep() < tol {
			return i
		}
	}
	return maxIters
}

// Value returns the interior value at local (i, j), 0-based.
func (s *Sim) Value(i, j int) float64 {
	return s.cur[(i+1)*(s.cfg.Cols+2)+j+1]
}

// Snapshot renders the rank's staged block: the interior rows x cols
// field placed in the rank's global slab.
func (s *Sim) Snapshot() (ndarray.Block, error) {
	box := WriterBox(s.npes, s.rank, s.cfg.Rows, s.cfg.Cols)
	data := make([]float64, s.cfg.Rows*s.cfg.Cols)
	w := s.cfg.Cols + 2
	for i := 0; i < s.cfg.Rows; i++ {
		copy(data[i*s.cfg.Cols:(i+1)*s.cfg.Cols], s.cur[(i+1)*w+1:(i+1)*w+1+s.cfg.Cols])
	}
	return ndarray.NewDenseBlock(box, data)
}

// MomentsOf computes the first `Moments` central moments of the values:
// the mean, then E[(v-mean)^k] for k = 2..Moments.
func MomentsOf(values []float64) [Moments]float64 {
	var out [Moments]float64
	n := float64(len(values))
	if n == 0 {
		return out
	}
	var mean float64
	for _, v := range values {
		mean += v
	}
	mean /= n
	out[0] = mean
	for _, v := range values {
		d := v - mean
		p := d
		for k := 1; k < Moments; k++ {
			p *= d
			out[k] += p
		}
	}
	for k := 1; k < Moments; k++ {
		out[k] /= n
	}
	return out
}

// MTA is the coupled analytics: n-th-moment turbulence analysis of the
// staged field portion.
type MTA struct{}

// Consume computes the moments of one staged block.
func (MTA) Consume(blk ndarray.Block) ([Moments]float64, error) {
	if !blk.Dense() {
		return [Moments]float64{}, fmt.Errorf("laplace mta: synthetic block")
	}
	return MomentsOf(blk.Data), nil
}
