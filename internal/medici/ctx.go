package medici

import (
	"context"
	"errors"
	"net"
	"os"
	"time"
)

// cancelOnDone makes blocking I/O on conn honor ctx: the moment ctx is
// canceled the connection deadline moves into the past, which wakes any
// in-flight Read/Write with a timeout error. It spawns nothing until ctx
// is actually canceled. The caller calls stop when finished with the I/O;
// stop reports false when the cancellation already fired (or is firing),
// after which the connection's deadline is poisoned and the connection
// must not be reused.
func cancelOnDone(ctx context.Context, conn net.Conn) (stop func() bool) {
	return context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
}

// ctxIOErr maps an I/O error that the context induced — through
// cancelOnDone, or through a connection deadline copied from ctx.Deadline()
// — back onto the context's error, so callers see context.Canceled /
// context.DeadlineExceeded instead of a raw "i/o timeout". The connection
// deadline and the context's own timer are two clocks: the connection's
// can fire first, so a timeout at or past ctx.Deadline() is the context
// expiring even while ctx.Err() is still nil.
func ctxIOErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	if deadline, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return err
}
