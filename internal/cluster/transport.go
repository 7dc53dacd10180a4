package cluster

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// maxIdlePerBackend caps the idle connections Transport keeps per
// backend. Below the cap the pool holds as many as were ever in flight
// at once, since a connection is dialled only when none is idle.
const maxIdlePerBackend = 128

// Transport is the gateway's backend http.RoundTripper: an HTTP/1.1
// exchange written (req.Write) and read (http.ReadResponse) on the
// calling goroutine over a per-backend pool of keep-alive connections.
// net/http.Transport hands every exchange between three goroutines and
// keeps two idle connections per host, so a gateway fanning many
// concurrent sessions onto a backend spends its time handing off and
// redialling; see DESIGN.md §13.7.
//
//   - A connection returns to the pool only once its response body was
//     read to EOF; closing the body earlier closes the connection.
//   - Before an idle connection is reused, a non-blocking read checks
//     that the backend has not closed it meanwhile.
//   - The request context's deadline, or Timeout when that is sooner or
//     the context has none, is set as the connection deadline for the
//     whole exchange, dial through body. Only the dial watches the
//     context for cancellation.
//   - A failed dial is returned as the dialer's *net.OpError (Op
//     "dial"), which proves the request was never sent.
//
// Non-http URLs go to http.DefaultTransport. The zero value is ready to
// use; a Transport is safe for concurrent use.
type Transport struct {
	// Timeout bounds one exchange when positive.
	Timeout time.Duration

	mu   sync.Mutex
	idle map[string][]*backendConn // by host:port, most recently used last
}

type backendConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		return http.DefaultTransport.RoundTrip(req)
	}
	ctx := req.Context()
	deadline, _ := ctx.Deadline()
	if t.Timeout > 0 {
		if d := time.Now().Add(t.Timeout); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	bc := t.takeIdle(addr)
	if bc == nil {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			closeRequestBody(req)
			return nil, err
		}
		bc = &backendConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	}
	if err := bc.conn.SetDeadline(deadline); err != nil {
		bc.conn.Close()
		closeRequestBody(req)
		return nil, err
	}
	err := req.Write(bc.bw)
	if err == nil {
		err = bc.bw.Flush()
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(bc.br, req)
	}
	if err != nil {
		bc.conn.Close()
		return nil, err
	}
	reusable := !resp.Close && !req.Close
	if resp.Body == http.NoBody {
		t.release(addr, bc, reusable)
	} else {
		resp.Body = &backendBody{body: resp.Body, t: t, addr: addr, bc: bc, reusable: reusable}
	}
	return resp, nil
}

// takeIdle pops the most recently used idle connection to addr that is
// still open, closing any the backend closed while they sat idle.
func (t *Transport) takeIdle(addr string) *backendConn {
	for {
		t.mu.Lock()
		pool := t.idle[addr]
		if len(pool) == 0 {
			t.mu.Unlock()
			return nil
		}
		bc := pool[len(pool)-1]
		pool[len(pool)-1] = nil
		t.idle[addr] = pool[:len(pool)-1]
		t.mu.Unlock()
		if idleOpen(bc.conn) {
			return bc
		}
		bc.conn.Close()
	}
}

// release ends an exchange: the connection goes back to the pool when
// reusable and nothing is left unread on it, else it is closed.
func (t *Transport) release(addr string, bc *backendConn, reusable bool) {
	if reusable && bc.br.Buffered() == 0 {
		t.mu.Lock()
		if t.idle == nil {
			t.idle = make(map[string][]*backendConn)
		}
		if pool := t.idle[addr]; len(pool) < maxIdlePerBackend {
			t.idle[addr] = append(pool, bc)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
	bc.conn.Close()
}

// CloseIdleConnections closes every pooled connection; http.Client's
// method of the same name calls it.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, pool := range idle {
		for _, bc := range pool {
			bc.conn.Close()
		}
	}
}

func closeRequestBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// backendBody hands its connection back at EOF, or closes it when the
// body is closed first. Like any response body it is read from one
// goroutine at a time.
type backendBody struct {
	body     io.ReadCloser
	t        *Transport
	addr     string
	bc       *backendConn // nil once released
	reusable bool
}

func (b *backendBody) Read(p []byte) (int, error) {
	if b.bc == nil {
		return 0, io.EOF
	}
	n, err := b.body.Read(p)
	if err == io.EOF {
		b.t.release(b.addr, b.bc, b.reusable)
		b.bc = nil
	}
	return n, err
}

// Close closes the connection unless the body already reached EOF. The
// connection is the body's only resource, so the underlying body, whose
// Close would drain the rest of the response first, is left unclosed.
func (b *backendBody) Close() error {
	if b.bc != nil {
		b.bc.conn.Close()
		b.bc = nil
	}
	return nil
}
