package core

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/lammps"
	"github.com/imcstudy/imcstudy/internal/laplace"
	"github.com/imcstudy/imcstudy/internal/synthetic"
)

// Table1 regenerates Table I: the build and runtime configurations of
// each method as modelled by the testbed.
func Table1(Options) *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Build and runtime configurations (Table I)",
		Header: []string{"method", "version modelled", "build options", "runtime configuration"},
	}
	t.AddRow(labels("DataSpaces/ADIOS, DIMES/ADIOS", "DataSpaces 1.7.2, ADIOS 1.13",
		"-with-dataspaces, -with-dimes, -with-mxml, -with-flexpath, -enable-dimes, -with-dimes-rdma-buffer-size=1024, -enable-drc",
		"lock_type=2, hash_version=2, max_versions=1")...)
	t.AddRow(labels("DataSpaces/native, DIMES/native", "DataSpaces 1.7.2",
		"-enable-dimes, -enable-drc, -with-dimes-rdma-buffer-size=2048",
		"lock_type=2, hash_version=2, max_versions=1")...)
	t.AddRow(labels("MPI-IO/ADIOS", "ADIOS 1.13",
		"-with-mxml",
		"lfs setstripe -stripe-size 1m -stripe-count -1, ADIOS XML: stats=off")...)
	t.AddRow(labels("Flexpath/ADIOS", "ADIOS 1.13 + EVPath",
		"-with-flexpath",
		"CMTransport=nnti, ADIOS XML: queue_size=1")...)
	t.AddRow(labels("Decaf", "as of 06/20/2018",
		"transport_mpi=on, build_bredala=on, build_manala=on",
		"prod_dflow_redist='count', dflow_con_redist='count'")...)
	t.AddNote("every option above has a behavioural counterpart in the model: buffer sizes bound DIMES pools, hash_version selects the index, queue_size bounds Flexpath queues, redist='count' drives Decaf splitting, stripe settings shape Lustre writes")
	return t
}

// Table2 regenerates Table II: the workflow descriptions with the staged
// output geometry the testbed produces.
func Table2(Options) *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Workflow description (Table II); nprocs is the simulation processor count",
		Header: []string{"workflow", "simulation", "analytics", "output data"},
	}
	lammpsBox := lammps.GlobalBox(1, lammps.PaperAtomsPerRank)
	t.AddRow(labels("LAMMPS", "Lennard-Jones melt MD (velocity Verlet, reduced units)",
		"mean squared displacement (MSD)",
		fmt.Sprintf("5 x nprocs x %d doubles (%s per processor)",
			lammps.PaperAtomsPerRank, fmt.Sprintf("%.1f MB", float64(lammpsBox.Bytes())/(1<<20))))...)
	laplaceBox := laplace.GlobalBox(1, laplace.PaperRows, laplace.PaperCols)
	t.AddRow(labels("Laplace", "Jacobi solver for Laplace's equation in a rectangle",
		"n-th moment turbulence data analysis (MTA)",
		fmt.Sprintf("%d x (nprocs x %d) doubles (%.0f MB per processor)",
			laplace.PaperRows, laplace.PaperCols, float64(laplaceBox.Bytes())/(1<<20)))...)
	t.AddRow(labels("Synthetic", "MPI writer staging a configurable 3-D array",
		"MPI reader retrieving and verifying its portion",
		fmt.Sprintf("%d bytes per writer in either layout", synthetic.PerWriterBytes()))...)
	return t
}

// Table5Findings lists the qualitative findings matrix (Table V), with
// each cell backed by a check the testbed can run (see Findings()).
func Table5(o Options) *Table {
	t := &Table{
		ID:     "table5",
		Title:  "Qualitative summary (Table V): '+' relevant, '-' not, '+/-' conditional",
		Header: []string{"finding", "DataSpaces", "DIMES", "Flexpath", "Decaf", "verified"},
	}
	for _, f := range Findings(o) {
		verified := "yes"
		if !f.Verified {
			verified = "NO: " + f.Detail
		}
		t.AddRow(labels(f.Name, f.DataSpaces, f.DIMES, f.Flexpath, f.Decaf, verified)...)
	}
	t.AddNote("the 'verified' column is computed by re-running the experiments behind each finding (see internal/core/findings.go)")
	return t
}
