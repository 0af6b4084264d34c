package workflow

import (
	"errors"
	"fmt"
	"testing"

	"github.com/imcstudy/imcstudy/internal/decaf"
	"github.com/imcstudy/imcstudy/internal/dimes"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/transport"
)

func TestFailureClass(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("staging put: %w", err) }
	for _, c := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{errors.New("config rejected"), "other"},
		{wrap(hpc.ErrMessageLost), "message-lost"},
		{wrap(hpc.ErrServerBusy), "server-busy"},
		{wrap(hpc.ErrTransientOp), "transient-op"},
		{wrap(retry.ErrExhausted), "retry-exhausted"},
		// A give-up unwraps to its last cause, and the cause names it.
		{wrap(&retry.Exhausted{Op: "put", Attempts: 8, Err: hpc.ErrMessageLost}), "message-lost"},
		{wrap(rdma.ErrOutOfMemory), "out-of-RDMA-memory"},
		{wrap(rdma.ErrOutOfHandles), "out-of-RDMA-handlers"},
		{wrap(rdma.ErrDRCOverload), "out-of-DRC"},
		{wrap(rdma.ErrDRCNodeSecure), "DRC-node-secure"},
		{wrap(transport.ErrOutOfSockets), "out-of-sockets"},
		{wrap(hpc.ErrOutOfNodeMemory), "out-of-main-memory"},
		{wrap(hpc.ErrNodeFailed), "node-failure"},
		{wrap(dimes.ErrBufferFull), "RDMA-buffer-full"},
		{wrap(decaf.ErrHeterogeneous), "no-heterogeneous-launch"},
		{wrap(ndarray.ErrDimOverflow), "dimension-overflow"},
		{wrap(&sim.StallError{}), "stalled"},
		{wrap(sim.ErrDeadlock), "deadlock"},
		{wrap(sim.ErrDeadline), "deadline"},
		{wrap(sim.RecoveredPanic("proc sim-0", "boom")), "panic"},
		// A joined failure takes the earlier class of the taxonomy,
		// whatever order it was joined in.
		{errors.Join(hpc.ErrOutOfNodeMemory, hpc.ErrNodeFailed), "out-of-main-memory"},
		{errors.Join(hpc.ErrNodeFailed, hpc.ErrOutOfNodeMemory), "out-of-main-memory"},
	} {
		if got := FailureClass(c.err); got != c.want {
			t.Errorf("FailureClass(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
