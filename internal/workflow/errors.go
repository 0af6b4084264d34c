package workflow

import (
	"errors"

	"github.com/imcstudy/imcstudy/internal/decaf"
	"github.com/imcstudy/imcstudy/internal/dimes"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/transport"
)

// failureClasses is the failure taxonomy: every sentinel a run can fail
// with, and its class name. The first match wins, so the order matters:
//
//   - the injected transient causes come first, because a retry give-up
//     (*retry.Exhausted) unwraps to the last cause it saw;
//   - then the give-up itself;
//   - then the Table IV resource classes and the machine failures of
//     Section IV-C;
//   - then dimension overflow (Table IV row 2, a setup-time check);
//   - last the engine outcomes: stall, deadlock, deadline, panic.
var failureClasses = []struct {
	err   error
	class string
}{
	{hpc.ErrMessageLost, "message-lost"},
	{hpc.ErrServerBusy, "server-busy"},
	{hpc.ErrTransientOp, "transient-op"},
	{retry.ErrExhausted, "retry-exhausted"},
	{rdma.ErrOutOfMemory, "out-of-RDMA-memory"},
	{rdma.ErrOutOfHandles, "out-of-RDMA-handlers"},
	{rdma.ErrDRCOverload, "out-of-DRC"},
	{rdma.ErrDRCNodeSecure, "DRC-node-secure"},
	{transport.ErrOutOfSockets, "out-of-sockets"},
	{hpc.ErrOutOfNodeMemory, "out-of-main-memory"},
	{hpc.ErrNodeFailed, "node-failure"},
	{dimes.ErrBufferFull, "RDMA-buffer-full"},
	{decaf.ErrHeterogeneous, "no-heterogeneous-launch"},
	{ndarray.ErrDimOverflow, "dimension-overflow"},
	{sim.ErrStalled, "stalled"},
	{sim.ErrDeadlock, "deadlock"},
	{sim.ErrDeadline, "deadline"},
	{sim.ErrPanicked, "panic"},
}

// FailureClass names the class of a run failure: "" for nil, the first
// class of the taxonomy that err matches, and "other" otherwise. Failed
// cells (FAIL(<class>)), the resilience table and chaos reports all
// read this one list.
func FailureClass(err error) string {
	if err == nil {
		return ""
	}
	for _, c := range failureClasses {
		if errors.Is(err, c.err) {
			return c.class
		}
	}
	return "other"
}
