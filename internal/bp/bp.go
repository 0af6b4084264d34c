// Package bp implements an ADIOS-style binary-packed (BP) self-describing
// file format: process groups of variable blocks with dimensions and
// offsets, and a trailing index that lets a reader locate any variable's
// blocks without scanning the file (Section II-A: "ADIOS designs a
// binary-packed mechanism that allows for the self-describing data
// format").
//
// The MPI-IO baseline uses this encoding for its step files, so the
// bytes the Lustre model charges correspond to a real, decodable layout.
package bp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/imcstudy/imcstudy/internal/ndarray"
)

// Format constants.
const (
	magic      uint32 = 0x42503134 // "BP14"
	versionNum uint16 = 1
	footerLen         = 12 // index offset (8) + magic (4)
)

// Decoding errors.
var (
	// ErrBadMagic reports a buffer that is not a BP encoding.
	ErrBadMagic = errors.New("bp: bad magic")
	// ErrTruncated reports a buffer shorter than its encoding claims.
	ErrTruncated = errors.New("bp: truncated buffer")
	// ErrVarNotFound reports a read of an unknown variable.
	ErrVarNotFound = errors.New("bp: variable not found")
)

// blockEntry locates one staged block inside the file.
type blockEntry struct {
	varName string
	box     ndarray.Box
	offset  uint64 // payload offset in the file
	dense   bool
}

// Writer accumulates process groups and renders the file.
type Writer struct {
	buf   []byte
	index []blockEntry
}

// NewWriter returns an empty writer.
func NewWriter() *Writer {
	w := &Writer{}
	w.buf = binary.BigEndian.AppendUint32(w.buf, magic)
	w.buf = binary.BigEndian.AppendUint16(w.buf, versionNum)
	return w
}

// Write appends one variable block (a process group payload).
func (w *Writer) Write(varName string, blk ndarray.Block) error {
	if blk.Box.Rank() == 0 {
		return fmt.Errorf("bp: rank-0 block for %s", varName)
	}
	entry := blockEntry{
		varName: varName,
		box:     blk.Box.Clone(),
		offset:  uint64(len(w.buf)),
		dense:   blk.Dense(),
	}
	// Synthetic blocks (the model's timing payloads) record their box
	// only.
	for _, v := range blk.Data {
		w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
	}
	w.index = append(w.index, entry)
	return nil
}

// Bytes finalizes the file: payloads, then the index, then the footer
// pointing at the index.
func (w *Writer) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	indexOff := uint64(len(out))
	out = binary.BigEndian.AppendUint32(out, uint32(len(w.index)))
	for _, e := range w.index {
		out = appendString(out, e.varName)
		out = binary.BigEndian.AppendUint32(out, uint32(e.box.Rank()))
		for i := 0; i < e.box.Rank(); i++ {
			out = binary.BigEndian.AppendUint64(out, e.box.Lo[i])
			out = binary.BigEndian.AppendUint64(out, e.box.Hi[i])
		}
		out = binary.BigEndian.AppendUint64(out, e.offset)
		flags := byte(0)
		if e.dense {
			flags |= 1
		}
		out = append(out, flags)
	}
	out = binary.BigEndian.AppendUint64(out, indexOff)
	out = binary.BigEndian.AppendUint32(out, magic)
	return out
}

// Reader decodes a BP file.
type Reader struct {
	buf   []byte
	index []blockEntry
}

// NewReader parses the index of a BP buffer.
func NewReader(buf []byte) (*Reader, error) {
	if len(buf) < 6+footerLen {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint32(buf) != magic {
		return nil, ErrBadMagic
	}
	if binary.BigEndian.Uint32(buf[len(buf)-4:]) != magic {
		return nil, fmt.Errorf("%w: footer magic", ErrBadMagic)
	}
	indexOff := binary.BigEndian.Uint64(buf[len(buf)-footerLen:])
	if indexOff >= uint64(len(buf)) {
		return nil, ErrTruncated
	}
	r := &Reader{buf: buf}
	d := &decoder{buf: buf, off: int(indexOff)}
	count, err := d.uint32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < count; i++ {
		var e blockEntry
		if e.varName, err = d.str(); err != nil {
			return nil, err
		}
		rank, err := d.uint32()
		if err != nil {
			return nil, err
		}
		// Each dimension costs 16 bytes in the index; bound before
		// allocating so corrupted ranks cannot trigger huge allocations.
		if uint64(rank) > uint64(len(buf)-d.off)/16 {
			return nil, ErrTruncated
		}
		lo := make([]uint64, rank)
		hi := make([]uint64, rank)
		for j := range lo {
			if lo[j], err = d.uint64(); err != nil {
				return nil, err
			}
			if hi[j], err = d.uint64(); err != nil {
				return nil, err
			}
		}
		if e.box, err = ndarray.NewBox(lo, hi); err != nil {
			return nil, fmt.Errorf("bp: %w", err)
		}
		if e.offset, err = d.uint64(); err != nil {
			return nil, err
		}
		flags, err := d.byte()
		if err != nil {
			return nil, err
		}
		if flags&^1 != 0 {
			return nil, fmt.Errorf("bp: unknown block flags %#x", flags)
		}
		e.dense = flags&1 != 0
		if e.dense {
			// A dense block's element count must fit the file, and its
			// per-dimension product must not overflow (corrupted indexes).
			elems := uint64(1)
			for j := range lo {
				ext := hi[j] - lo[j]
				if ext == 0 {
					elems = 0
					break
				}
				if elems > math.MaxUint64/ext {
					return nil, ErrTruncated
				}
				elems *= ext
			}
			if elems > uint64(len(buf))/8 {
				return nil, ErrTruncated
			}
		}
		r.index = append(r.index, e)
	}
	return r, nil
}

// Vars returns the distinct variable names in index order.
func (r *Reader) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range r.index {
		if !seen[e.varName] {
			seen[e.varName] = true
			out = append(out, e.varName)
		}
	}
	return out
}

// Blocks returns the boxes stored for a variable.
func (r *Reader) Blocks(varName string) []ndarray.Box {
	var out []ndarray.Box
	for _, e := range r.index {
		if e.varName == varName {
			out = append(out, e.box.Clone())
		}
	}
	return out
}

// Read assembles the requested region of varName from the stored blocks.
func (r *Reader) Read(varName string, region ndarray.Box) (ndarray.Block, error) {
	var parts []ndarray.Block
	for _, e := range r.index {
		if e.varName != varName || !e.box.Overlaps(region) {
			continue
		}
		blk, err := r.loadBlock(e)
		if err != nil {
			return ndarray.Block{}, err
		}
		parts = append(parts, blk)
	}
	if len(parts) == 0 {
		return ndarray.Block{}, fmt.Errorf("%w: %s", ErrVarNotFound, varName)
	}
	return ndarray.Assemble(region, parts)
}

func (r *Reader) loadBlock(e blockEntry) (ndarray.Block, error) {
	if !e.dense {
		return ndarray.NewSyntheticBlock(e.box), nil
	}
	n := e.box.NumElems()
	// Guard both the offset and the element count against corrupted
	// indexes (overflow-safe: compare counts, not sums).
	if e.offset > uint64(len(r.buf)) || n > (uint64(len(r.buf))-e.offset)/8 {
		return ndarray.Block{}, ErrTruncated
	}
	data := make([]float64, n)
	for i := uint64(0); i < n; i++ {
		bits := binary.BigEndian.Uint64(r.buf[e.offset+i*8:])
		data[i] = math.Float64frombits(bits)
	}
	return ndarray.NewDenseBlock(e.box, data)
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return ErrTruncated
	}
	return nil
}

func (d *decoder) byte() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uint32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uint32()
	if err != nil {
		return "", err
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}
