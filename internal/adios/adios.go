// Package adios models the ADIOS 1.13 I/O framework: applications write
// through a descriptive API (open/write/close) against groups declared in
// an external XML configuration, and the actual data movement is
// delegated to a pluggable transport method — MPI (file I/O), DATASPACES,
// DIMES or FLEXPATH (Section II-A).
//
// The framework costs modelled are the ones the paper attributes to
// ADIOS: an extra buffered copy of every written variable (freed at
// close), optional statistics gathering (stats="off" in Table I turns it
// off), and the XML-driven configuration path that Table III counts
// toward integration effort.
package adios

import (
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// Errors.
var (
	// ErrUnknownMethod reports an unsupported method name in the XML.
	ErrUnknownMethod = errors.New("adios: unknown transport method")
	// ErrUnknownGroup reports an open of a group absent from the config.
	ErrUnknownGroup = errors.New("adios: unknown group")
	// ErrNotOpen reports a write outside an open/close cycle.
	ErrNotOpen = errors.New("adios: writer not open")
)

// MethodKind identifies a transport method.
type MethodKind int

// Supported transport methods.
const (
	MethodMPI MethodKind = iota + 1
	MethodDataSpaces
	MethodDIMES
	MethodFlexpath
)

// String returns the XML name of the method.
func (k MethodKind) String() string {
	switch k {
	case MethodMPI:
		return "MPI"
	case MethodDataSpaces:
		return "DATASPACES"
	case MethodDIMES:
		return "DIMES"
	case MethodFlexpath:
		return "FLEXPATH"
	default:
		return fmt.Sprintf("MethodKind(%d)", int(k))
	}
}

// StatsBytesPerSec is the throughput of the statistics pass when a group
// has stats enabled.
const StatsBytesPerSec = 1e9

// VarDecl is one declared variable.
type VarDecl struct {
	Name string
	Dims []uint64
}

// GroupDecl is one adios-group.
type GroupDecl struct {
	Name   string
	Stats  bool
	Vars   []VarDecl
	Method MethodKind
	Params string
}

// Config is a parsed ADIOS configuration.
type Config struct {
	Groups       map[string]*GroupDecl
	BufferSizeMB int
}

// xmlConfig mirrors the ADIOS 1.x XML layout.
type xmlConfig struct {
	XMLName xml.Name    `xml:"adios-config"`
	Groups  []xmlGroup  `xml:"adios-group"`
	Methods []xmlMethod `xml:"method"`
	Buffer  *xmlBuffer  `xml:"buffer"`
}

type xmlGroup struct {
	Name  string   `xml:"name,attr"`
	Stats string   `xml:"stats,attr"`
	Vars  []xmlVar `xml:"var"`
}

type xmlVar struct {
	Name       string `xml:"name,attr"`
	Dimensions string `xml:"dimensions,attr"`
}

type xmlMethod struct {
	Group  string `xml:"group,attr"`
	Method string `xml:"method,attr"`
	Params string `xml:",chardata"`
}

type xmlBuffer struct {
	SizeMB int `xml:"size-MB,attr"`
}

// ParseConfig parses an ADIOS XML configuration document.
func ParseConfig(doc []byte) (*Config, error) {
	var x xmlConfig
	if err := xml.Unmarshal(doc, &x); err != nil {
		return nil, fmt.Errorf("adios: parsing config: %w", err)
	}
	cfg := &Config{Groups: make(map[string]*GroupDecl)}
	if x.Buffer != nil {
		cfg.BufferSizeMB = x.Buffer.SizeMB
	}
	for _, g := range x.Groups {
		decl := &GroupDecl{Name: g.Name, Stats: strings.EqualFold(g.Stats, "on")}
		for _, v := range g.Vars {
			dims, err := parseDims(v.Dimensions)
			if err != nil {
				return nil, fmt.Errorf("adios: var %s: %w", v.Name, err)
			}
			decl.Vars = append(decl.Vars, VarDecl{Name: v.Name, Dims: dims})
		}
		cfg.Groups[g.Name] = decl
	}
	for _, m := range x.Methods {
		g, ok := cfg.Groups[m.Group]
		if !ok {
			return nil, fmt.Errorf("%w: method for %q", ErrUnknownGroup, m.Group)
		}
		kind, err := methodKind(m.Method)
		if err != nil {
			return nil, err
		}
		g.Method = kind
		g.Params = strings.TrimSpace(m.Params)
	}
	names := make([]string, 0, len(cfg.Groups))
	for name := range cfg.Groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if cfg.Groups[name].Method == 0 {
			return nil, fmt.Errorf("adios: group %s has no method", name)
		}
	}
	return cfg, nil
}

func methodKind(name string) (MethodKind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "MPI", "MPI_AGGREGATE", "POSIX":
		return MethodMPI, nil
	case "DATASPACES":
		return MethodDataSpaces, nil
	case "DIMES":
		return MethodDIMES, nil
	case "FLEXPATH":
		return MethodFlexpath, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownMethod, name)
	}
}

func parseDims(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	dims := make([]uint64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q: %w", part, err)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

// WriteTransport is what a Writer delegates data movement to. The
// DataSpaces and DIMES clients satisfy it directly; Flexpath through
// FlexpathWriterTransport.
type WriteTransport interface {
	// Put stages one variable block of a step.
	Put(p *sim.Proc, varName string, version int, blk ndarray.Block) error
	// Commit marks this writer's step complete.
	Commit(varName string, version int)
}

// ReadTransport is what a Reader delegates data movement to. The
// DataSpaces and DIMES clients satisfy it directly; Flexpath through
// FlexpathReaderTransport.
type ReadTransport interface {
	// Get retrieves a box of a step.
	Get(p *sim.Proc, varName string, version int, box ndarray.Box) (ndarray.Block, error)
}

// Writer is one rank's adios_open/adios_write/adios_close cycle.
type Writer struct {
	m     *hpc.Machine
	node  *hpc.Node
	comp  string
	group *GroupDecl
	tr    WriteTransport

	open     bool
	step     int
	buffered []ndarray.Block
	bufVars  []string
	bufBytes int64
}

// NewWriter creates a writer for the named group on node.
func NewWriter(m *hpc.Machine, node *hpc.Node, cfg *Config, group, component string, tr WriteTransport) (*Writer, error) {
	g, ok := cfg.Groups[group]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownGroup, group)
	}
	return &Writer{m: m, node: node, comp: component, group: g, tr: tr}, nil
}

// Open begins a write step (adios_open).
func (w *Writer) Open(step int) error {
	if w.open {
		return fmt.Errorf("adios: step %d already open", w.step)
	}
	w.open = true
	w.step = step
	return nil
}

// Write buffers one variable (adios_write): the framework copies the
// caller's data into its own buffer — the extra copy and footprint that
// distinguish the ADIOS path from the native library APIs.
func (w *Writer) Write(p *sim.Proc, varName string, blk ndarray.Block) error {
	if !w.open {
		return ErrNotOpen
	}
	if err := w.m.Alloc(w.node, w.comp, "adios-buffer", blk.Bytes()); err != nil {
		return err
	}
	// The buffered memcpy crosses the node's memory bus.
	if err := p.Transfer(w.m.Net, float64(blk.Bytes()), w.node.Bus()); err != nil {
		return err
	}
	if w.group.Stats {
		if err := w.m.Compute(p, float64(blk.Bytes())/StatsBytesPerSec); err != nil {
			return err
		}
	}
	w.buffered = append(w.buffered, blk)
	w.bufVars = append(w.bufVars, varName)
	w.bufBytes += blk.Bytes()
	return nil
}

// Close flushes the buffered variables through the transport and releases
// the framework buffer (adios_close).
func (w *Writer) Close(p *sim.Proc) error {
	if !w.open {
		return ErrNotOpen
	}
	for i, blk := range w.buffered {
		if err := w.tr.Put(p, w.bufVars[i], w.step, blk); err != nil {
			return err
		}
		w.tr.Commit(w.bufVars[i], w.step)
	}
	w.m.Free(w.node, w.comp, "adios-buffer", w.bufBytes)
	w.buffered = nil
	w.bufVars = nil
	w.bufBytes = 0
	w.open = false
	return nil
}

// Reader is one rank's read path (adios_schedule_read/perform_reads).
type Reader struct {
	tr   ReadTransport
	reqs []readReq
}

type readReq struct {
	varName string
	box     ndarray.Box
}

// NewReader creates a reader delegating to the transport.
func NewReader(tr ReadTransport) *Reader {
	return &Reader{tr: tr}
}

// ScheduleRead queues a selection (adios_schedule_read).
func (r *Reader) ScheduleRead(varName string, box ndarray.Box) {
	r.reqs = append(r.reqs, readReq{varName: varName, box: box})
}

// PerformReads executes the queued selections for the step and clears the
// queue (adios_perform_reads).
func (r *Reader) PerformReads(p *sim.Proc, step int) ([]ndarray.Block, error) {
	out := make([]ndarray.Block, 0, len(r.reqs))
	for _, req := range r.reqs {
		blk, err := r.tr.Get(p, req.varName, step, req.box)
		if err != nil {
			return nil, err
		}
		out = append(out, blk)
	}
	r.reqs = nil
	return out, nil
}
