//go:build unix

package cluster

import (
	"errors"
	"net"
	"syscall"
)

// idleOpen reports whether an idle connection can carry a request: a
// read on its socket (non-blocking, as every Go socket is) would block.
// A read that returns end-of-file or an error means the backend closed
// or reset it while it sat idle; bytes an idle connection never asked
// for mean it is out of step. Either way it must not be used, and the
// check consumes nothing from a connection that passes.
func idleOpen(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	open := false
	var b [1]byte
	err = rc.Read(func(fd uintptr) bool {
		_, rerr := syscall.Read(int(fd), b[:])
		open = errors.Is(rerr, syscall.EAGAIN)
		return true
	})
	return err == nil && open
}
