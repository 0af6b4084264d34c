package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/imcstudy/imcstudy/internal/dataspaces"
	"github.com/imcstudy/imcstudy/internal/dimes"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/lammps"
	"github.com/imcstudy/imcstudy/internal/laplace"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// system is a modelled system built the way workflow.Run builds one
// before its event loop starts: engine, machine with the job placement,
// and for DataSpaces and DIMES the deployment plus one client per rank.
type system struct {
	e       *sim.Engine
	m       *hpc.Machine
	sim     []*hpc.Node // writer node of each simulation rank
	ana     []*hpc.Node // reader node of each analytics rank
	servers []*hpc.Node
	ds      *dataspaces.System
	dimes   *dimes.System
	// DIMES writer and reader clients, which the DIMES driver drives.
	dmw, dmr []*dimes.Client
}

// setupTimes splits one build into the machine (sim.NewEngine, hpc.New,
// PlaceJob) and the coupler deployment (Deploy and the clients).
type setupTimes struct {
	machine, deploy time.Duration
}

// servers is the staging-server count workflow.Run provisions: Decaf one
// per analytics rank, DIMES four, DataSpaces one per eight analytics
// ranks unless the configuration overrides it.
func servers(cfg workflow.Config) int {
	switch {
	case cfg.Servers > 0:
		return cfg.Servers
	case cfg.Method == workflow.MethodDecaf:
		return cfg.AnaProcs
	case cfg.Method == workflow.MethodDIMESNative || cfg.Method == workflow.MethodDIMESADIOS:
		return 4
	default:
		return max(cfg.AnaProcs/8, 1)
	}
}

// perStepBytes is the per-writer staged payload of the configuration's
// application (Table II); it sizes the client buffers' memory charge.
func perStepBytes(cfg workflow.Config) int64 {
	switch cfg.Workload {
	case workflow.WorkloadLAMMPS:
		return int64(lammps.Properties) * int64(lammps.PaperAtomsPerRank) * ndarray.ElemSize
	case workflow.WorkloadLaplace:
		return int64(laplace.PaperRows) * int64(laplace.PaperCols) * ndarray.ElemSize
	default:
		return synthetic.PerWriterBytes()
	}
}

const serversPerNode = 2

// build constructs the system for cfg. Methods other than DataSpaces and
// DIMES get the machine and placement only.
func build(cfg workflow.Config) (*system, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	s := &system{e: sim.NewEngine()}
	rpn := cfg.Machine.CoresPerNode
	simNodes := ceilDiv(cfg.SimProcs, rpn)
	anaNodes := ceilDiv(cfg.AnaProcs, rpn)
	serverNodes := 0
	switch cfg.Method {
	case workflow.MethodSimOnly, workflow.MethodAnalyticsOnly, workflow.MethodFlexpath, workflow.MethodMPIIO:
	default:
		serverNodes = ceilDiv(servers(cfg), serversPerNode)
	}
	m, err := hpc.New(s.e, cfg.Machine, simNodes+anaNodes+serverNodes)
	if err != nil {
		return nil, st, err
	}
	s.m = m
	for _, job := range []struct {
		name         string
		first, count int
	}{{"sim", 0, simNodes}, {"analytics", simNodes, anaNodes}, {"staging", simNodes + anaNodes, serverNodes}} {
		if job.count == 0 {
			continue
		}
		if _, err := m.PlaceJob(job.name, job.first, job.count); err != nil {
			return nil, st, err
		}
	}
	for i := 0; i < cfg.SimProcs; i++ {
		s.sim = append(s.sim, m.Nodes[i/rpn])
	}
	for r := 0; r < cfg.AnaProcs; r++ {
		s.ana = append(s.ana, m.Nodes[simNodes+r/rpn])
	}
	s.servers = m.Nodes[simNodes+anaNodes:]
	st.machine = time.Since(start)

	start = time.Now()
	bytes := perStepBytes(cfg)
	switch cfg.Method {
	case workflow.MethodDataSpacesNative, workflow.MethodDataSpacesADIOS:
		s.ds, err = dataspaces.Deploy(m, dataspaces.Config{
			Servers: servers(cfg), ServersPerNode: serversPerNode, MaxVersions: 1, Writers: cfg.SimProcs,
		}, s.servers)
		if err != nil {
			return nil, st, err
		}
		for i, n := range s.sim {
			if _, err := s.ds.NewClient(n, "sim", fmt.Sprintf("sim-%d", i), bytes); err != nil {
				return nil, st, err
			}
		}
		for r, n := range s.ana {
			if _, err := s.ds.NewClient(n, "analytics", fmt.Sprintf("ana-%d", r), bytes); err != nil {
				return nil, st, err
			}
		}
	case workflow.MethodDIMESNative, workflow.MethodDIMESADIOS:
		s.dimes, err = dimes.Deploy(m, dimes.Config{
			MetaServers: servers(cfg), MetaServersPerNode: serversPerNode, MaxVersions: 1,
			RDMABufBytes: 2 << 30, Writers: cfg.SimProcs,
		}, s.servers)
		if err != nil {
			return nil, st, err
		}
		for i, n := range s.sim {
			c, err := s.dimes.NewClient(n, "sim", fmt.Sprintf("sim-%d", i), bytes)
			if err != nil {
				return nil, st, err
			}
			s.dmw = append(s.dmw, c)
		}
		for r, n := range s.ana {
			c, err := s.dimes.NewClient(n, "analytics", fmt.Sprintf("ana-%d", r), bytes)
			if err != nil {
				return nil, st, err
			}
			s.dmr = append(s.dmr, c)
		}
	}
	st.deploy = time.Since(start)
	return s, st, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// timeSetup builds every configuration once and returns the summed
// phase times, starting from a collected heap.
func timeSetup(cfgs []workflow.Config) (setupTimes, error) {
	runtime.GC()
	var total setupTimes
	for _, cfg := range cfgs {
		_, st, err := build(cfg)
		if err != nil {
			return setupTimes{}, fmt.Errorf("set-up of %v %s %d+%d: %w", cfg.Method, cfg.Machine.Name, cfg.SimProcs, cfg.AnaProcs, err)
		}
		total.machine += st.machine
		total.deploy += st.deploy
	}
	return total, nil
}

// Set-up is repeated until setupBudget has been spent (at least
// minSetupReps and at most maxSetupReps builds) and reported as a median.
const (
	setupBudget  = 150 * time.Millisecond
	minSetupReps = 5
	maxSetupReps = 30
)

// medianSetup times repeated builds of cfgs and returns the median of
// each phase and of their sum.
func medianSetup(cfgs []workflow.Config) (machine, deploy, total float64, err error) {
	var ms, ds, ts []float64
	start := time.Now()
	for len(ts) < minSetupReps || (time.Since(start) < setupBudget && len(ts) < maxSetupReps) {
		st, err := timeSetup(cfgs)
		if err != nil {
			return 0, 0, 0, err
		}
		ms = append(ms, st.machine.Seconds())
		ds = append(ds, st.deploy.Seconds())
		ts = append(ts, (st.machine + st.deploy).Seconds())
	}
	return median(ms), median(ds), median(ts), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
