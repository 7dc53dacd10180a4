//go:build !unix

package cluster

import "net"

// idleOpen cannot peek at a socket here; an idle connection the backend
// closed fails its next exchange instead.
func idleOpen(net.Conn) bool { return true }
