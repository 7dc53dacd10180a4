package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// Health tracks backend readiness by probing each watched node's
// GET /readyz on a fixed cadence. A node is ready only when its last
// probe answered 200 — "booting" (WAL replay) and "draining" both
// answer 503, so the gateway stops routing new work there while the
// node is still alive (that distinction is why readiness is a separate
// endpoint from /healthz).
//
// With interval <= 0 no prober goroutine runs and every watched node
// reports ready; tests and single-shot tools use that mode to avoid
// probe timing in their control flow.
type Health struct {
	client   *http.Client
	interval time.Duration
	timeout  time.Duration

	mu    sync.Mutex
	ready map[string]bool // watched node -> last probe verdict

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewHealth builds a prober over client. interval is the probe cadence
// (<= 0 disables probing as described above); timeout bounds each probe.
func NewHealth(client *http.Client, interval, timeout time.Duration) *Health {
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	h := &Health{
		client:   client,
		interval: interval,
		timeout:  timeout,
		ready:    make(map[string]bool),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if interval > 0 {
		go h.run()
	} else {
		close(h.done)
	}
	return h
}

// Watch adds a node to the probe set. The node starts ready — it was
// just health-checked or admin-added by the caller — and the next probe
// cycle corrects that if it is not.
func (h *Health) Watch(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.ready[node]; !ok {
		h.ready[node] = true
	}
}

// Forget drops a node from the probe set.
func (h *Health) Forget(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.ready, node)
}

// Ready reports the node's last probe verdict. Unwatched nodes are not
// ready; with probing disabled every watched node is ready.
func (h *Health) Ready(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ok, watched := h.ready[node]
	if !watched {
		return false
	}
	if h.interval <= 0 {
		return true
	}
	return ok
}

// MarkUnready records an observed failure (a dial error during
// proxying) without waiting for the next probe cycle, so one dead-node
// discovery benefits every subsequent request.
func (h *Health) MarkUnready(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, watched := h.ready[node]; watched {
		h.ready[node] = false
	}
}

// Stop terminates the prober goroutine and waits for it to exit. Safe
// to call multiple times and with probing disabled.
func (h *Health) Stop() {
	h.stopOnce.Do(func() {
		close(h.stop)
	})
	<-h.done
}

// run is the prober loop. Probes are issued outside the mutex — the
// lock only guards the map — so a slow backend cannot stall Ready
// lookups on the request path.
func (h *Health) run() {
	defer close(h.done)
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
		}
		h.mu.Lock()
		nodes := make([]string, 0, len(h.ready))
		for n := range h.ready {
			nodes = append(nodes, n)
		}
		h.mu.Unlock()
		for _, n := range nodes {
			verdict := h.probe(n)
			h.mu.Lock()
			// Re-check membership: the node may have been Forgotten while
			// the probe was in flight.
			if _, watched := h.ready[n]; watched {
				h.ready[n] = verdict
			}
			h.mu.Unlock()
		}
	}
}

// probe issues one GET /readyz; only a 200 makes the node ready.
func (h *Health) probe(node string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false
	}
	// Read the (small) body to its end so the connection can be reused.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
