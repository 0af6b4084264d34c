package adios

import (
	"github.com/imcstudy/imcstudy/internal/flexpath"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// FlexpathWriterTransport adapts a Flexpath writer (the publish side) to
// WriteTransport.
type FlexpathWriterTransport struct{ *flexpath.Writer }

// Put publishes the block.
func (t FlexpathWriterTransport) Put(p *sim.Proc, varName string, version int, blk ndarray.Block) error {
	return t.Publish(p, varName, version, blk)
}

// Commit is a no-op: publication makes the version visible.
func (FlexpathWriterTransport) Commit(string, int) {}

// FlexpathReaderTransport adapts a Flexpath reader (the subscribe side) to
// ReadTransport.
type FlexpathReaderTransport struct{ *flexpath.Reader }

// Get fetches the reader's subscribed box; the box argument must match
// the subscription (Flexpath pulls whole subscriptions, not ad-hoc
// selections).
func (t FlexpathReaderTransport) Get(p *sim.Proc, varName string, version int, _ ndarray.Box) (ndarray.Block, error) {
	return t.Fetch(p, varName, version)
}
