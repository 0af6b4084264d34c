// Package gpu models the accelerator tier the paper's portability
// assessment (Section IV-B) found unsupported by every in-memory
// library: "data staging is assumed to be done at main memory ... GPU-
// enabled workflows are required to take care of the movement between
// GPU and CPU memory", with GPU interconnects like NVLink called out as
// "an attractive area for future research".
//
// A Device is a node-attached accelerator with bounded device memory and
// a host link (PCIe on Titan's K20X). Workflows whose data is GPU
// resident pay an explicit device-to-host copy before every put and a
// host-to-device copy after every get — unless the (hypothetical)
// GPU-direct mode is enabled, which stages straight from device memory
// over an NVLink-class fabric.
package gpu

import (
	"errors"
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// ErrOutOfDeviceMemory reports device-memory exhaustion.
var ErrOutOfDeviceMemory = errors.New("gpu: out of device memory")

// Spec describes an accelerator model.
type Spec struct {
	// Name labels the device.
	Name string
	// DeviceMemBytes is the device memory capacity.
	DeviceMemBytes int64
	// HostLinkBytesPerSec is the PCIe bandwidth to host memory.
	HostLinkBytesPerSec float64
	// DirectBytesPerSec is the NVLink-class bandwidth available for
	// GPU-direct staging (0: the device cannot stage directly).
	DirectBytesPerSec float64
}

// TitanK20X returns the Titan accelerator (Kepler K20X: 6 GB GDDR5,
// PCIe gen-2 host link, no direct staging path).
func TitanK20X() Spec {
	return Spec{
		Name:                "K20X",
		DeviceMemBytes:      6 << 30,
		HostLinkBytesPerSec: 8e9,
	}
}

// FutureNVLink returns a hypothetical future device with an NVLink-class
// direct staging path (the Section IV-B research direction).
func FutureNVLink() Spec {
	s := TitanK20X()
	s.Name = "K20X+NVLink"
	s.DirectBytesPerSec = 50e9
	return s
}

// Device is an accelerator attached to one node.
type Device struct {
	spec Spec
	m    *hpc.Machine
	node *hpc.Node
	mem  *sim.Resource
	pcie *sim.Link
	nvl  *sim.Link
}

// Attach adds a device of the given spec to a node.
func Attach(m *hpc.Machine, node *hpc.Node, spec Spec) (*Device, error) {
	if spec.DeviceMemBytes <= 0 || spec.HostLinkBytesPerSec <= 0 {
		return nil, fmt.Errorf("gpu: bad spec %+v", spec)
	}
	d := &Device{
		spec: spec,
		m:    m,
		node: node,
		mem:  m.E.NewResource("gpumem/"+node.Name(), spec.DeviceMemBytes),
		pcie: m.Net.NewLink("pcie/"+node.Name(), spec.HostLinkBytesPerSec),
	}
	if spec.DirectBytesPerSec > 0 {
		d.nvl = m.Net.NewLink("nvlink/"+node.Name(), spec.DirectBytesPerSec)
	}
	return d, nil
}

// Spec returns the device model.
func (d *Device) Spec() Spec { return d.spec }

// Node returns the hosting node.
func (d *Device) Node() *hpc.Node { return d.node }

// Alloc reserves device memory; it fails hard like cudaMalloc.
func (d *Device) Alloc(bytes int64) error {
	if err := d.mem.TryAcquire(bytes); err != nil {
		return fmt.Errorf("%w: want %d, %d of %d in use on %s",
			ErrOutOfDeviceMemory, bytes, d.mem.Used(), d.mem.Capacity(), d.node.Name())
	}
	return nil
}

// Free returns device memory.
func (d *Device) Free(bytes int64) { d.mem.Release(bytes) }

// CopyD2H moves bytes device-to-host over the PCIe link. Both directions
// share the one link, so it times a host-to-device copy too.
func (d *Device) CopyD2H(p *sim.Proc, bytes int64) error {
	return p.Transfer(d.m.Net, float64(bytes), d.pcie)
}

// TransferDirect moves bytes over the NVLink-class staging path, or
// fails when the device has none (today's libraries, per the paper).
func (d *Device) TransferDirect(p *sim.Proc, bytes int64) error {
	if d.nvl == nil {
		return fmt.Errorf("gpu: %s has no direct staging path", d.spec.Name)
	}
	return p.Transfer(d.m.Net, float64(bytes), d.nvl)
}
