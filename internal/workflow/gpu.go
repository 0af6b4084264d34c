package workflow

import (
	"github.com/imcstudy/imcstudy/internal/gpu"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// attachGPUs equips every simulation and analytics node with an
// accelerator when the run is GPU-resident.
func attachGPUs(cfg Config, m *hpc.Machine, lay *layout) (map[*hpc.Node]*gpu.Device, error) {
	if cfg.GPU == GPUOff {
		return nil, nil
	}
	spec := gpu.TitanK20X()
	if cfg.GPU == GPUDirect {
		spec = gpu.FutureNVLink()
	}
	devices := make(map[*hpc.Node]*gpu.Device)
	for _, pool := range [][]*hpc.Node{lay.simNodes, lay.anaNodes} {
		for _, node := range pool {
			if _, ok := devices[node]; ok {
				continue
			}
			dev, err := gpu.Attach(m, node, spec)
			if err != nil {
				return nil, err
			}
			devices[node] = dev
		}
	}
	return devices, nil
}

// gpuMove pays the device-side cost of moving bytes out of the device
// before a put or into it after a get: a PCIe copy when host-staged, an
// NVLink traversal when direct.
func gpuMove(p *sim.Proc, cfg Config, devices map[*hpc.Node]*gpu.Device, node *hpc.Node, bytes int64) error {
	if cfg.GPU == GPUOff || bytes == 0 {
		return nil
	}
	dev := devices[node]
	if dev == nil {
		return nil
	}
	if cfg.GPU == GPUDirect {
		return dev.TransferDirect(p, bytes)
	}
	return dev.CopyD2H(p, bytes)
}
