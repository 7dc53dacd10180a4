package cluster

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calibsched/internal/server"
	"calibsched/internal/trace"
)

// Options tunes a Gateway. The zero value of every field is usable.
type Options struct {
	// Backends are the initial calibserved base URLs (e.g.
	// "http://127.0.0.1:8081"); more can join at runtime via
	// POST /v1/cluster/join.
	Backends []string
	// VNodes is the ring's virtual-node count per backend (default
	// DefaultVNodes).
	VNodes int
	// Client issues all backend requests (default: one over a fresh
	// Transport; cmd/calibgate installs one whose Transport carries
	// -request-timeout).
	Client *http.Client
	// HealthInterval is the /readyz probe cadence; <= 0 disables probing
	// and treats every member as ready (tests).
	HealthInterval time.Duration
	// ProbeTimeout bounds one readiness probe (default 2s).
	ProbeTimeout time.Duration
	// Retries is how many times a failed backend send is re-issued
	// (default 2). Only transport failures retry — an HTTP error status
	// is a valid answer and passes through — and non-idempotent requests
	// retry only when the failure proves the request was never sent.
	Retries int
	// RetryBackoff is the base delay between retries, growing linearly
	// per attempt (default 50ms).
	RetryBackoff time.Duration
	// Logger receives request and migration records (default discard).
	Logger *slog.Logger
	// SpanStoreSize bounds the gateway's own request-trace store (default
	// 512 traces; negative disables proxy-span recording). Even with
	// recording disabled the gateway still forwards client traceparent
	// headers to the backends.
	SpanStoreSize int
	// SlowTraceThreshold marks traces whose proxy root exceeds it as
	// retained — they survive ring eviction ahead of fast traces. Zero
	// keeps plain FIFO eviction.
	SlowTraceThreshold time.Duration
	// Version is reported by the calibgate_build_info metric (default
	// "dev").
	Version string
}

// Gateway is the cluster front door: an http.Handler that
// consistent-hashes session IDs across calibserved backends, proxies
// the v1 API, and orchestrates live session migration. It holds no
// session state — routing is a pure function of the ring plus the
// transient override table maintained while a rebalance is in flight.
type Gateway struct {
	ring   *Ring
	health *Health
	client *http.Client
	mux    *http.ServeMux
	log    *slog.Logger
	opts   Options

	// overrides pins a session to a node regardless of the ring, for the
	// window where placement and ring disagree: during a join/leave
	// rebalance, and after a migration to an off-ring target. mu guards
	// only this map; no I/O ever happens under it.
	mu        sync.RWMutex
	overrides map[string]string

	// admin serializes migrate/join/leave. A channel semaphore instead
	// of a held mutex because these operations perform many backend
	// round-trips; a second admin request gets an immediate 409 rather
	// than queueing behind a slow rebalance.
	admin chan struct{}

	// idPrefix + idSeq generate session IDs at the gateway, which must
	// pick the ID before it can hash it onto a node. The random prefix
	// keeps two gateways (or a restarted one) from colliding.
	idPrefix string
	idSeq    atomic.Int64

	// spans records one proxy span per routed /v1 request (nil when
	// Options disable recording; every call site is nil-safe). The
	// trace handlers stitch these with the backends' fragments.
	spans *trace.SpanStore

	metrics gatewayMetrics
}

// gatewayMetrics are the gateway's own counters, appended to the
// aggregated /metrics as calibgate_*. Plain atomics rather than expvar:
// expvar's registry is process-global and panics on re-registration,
// which would forbid the multi-gateway setups the tests use.
type gatewayMetrics struct {
	proxied           atomic.Int64 // requests answered by a backend (any status)
	retries           atomic.Int64 // backend sends re-issued after a transport failure
	unroutable        atomic.Int64 // 503s for no-ready-owner (fail-open)
	proxyErrors       atomic.Int64 // 502s after retries were exhausted
	migrations        atomic.Int64 // sessions moved successfully
	migrationFailures atomic.Int64 // migrations that failed (session left on source)
	rebalances        atomic.Int64 // join/leave operations completed
}

// NewGateway builds a gateway over the given backends and starts its
// health prober.
func NewGateway(opts Options) (*Gateway, error) {
	if opts.Client == nil {
		opts.Client = &http.Client{Transport: &Transport{}}
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var prefix [4]byte
	if _, err := rand.Read(prefix[:]); err != nil {
		return nil, fmt.Errorf("cluster: seeding session id prefix: %w", err)
	}
	g := &Gateway{
		ring:      NewRing(opts.VNodes),
		health:    NewHealth(opts.Client, opts.HealthInterval, opts.ProbeTimeout),
		client:    opts.Client,
		mux:       http.NewServeMux(),
		log:       opts.Logger,
		opts:      opts,
		overrides: make(map[string]string),
		admin:     make(chan struct{}, 1),
		idPrefix:  hex.EncodeToString(prefix[:]),
	}
	if opts.SpanStoreSize >= 0 {
		size := opts.SpanStoreSize
		if size == 0 {
			size = 512
		}
		g.spans = trace.NewSpanStore(size, opts.SlowTraceThreshold, "gateway")
	}
	for _, b := range opts.Backends {
		node, err := normalizeNode(b)
		if err != nil {
			g.health.Stop()
			return nil, err
		}
		g.ring.Add(node)
		g.health.Watch(node)
	}

	g.mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	g.mux.HandleFunc("GET /v1/sessions", g.handleList)
	g.mux.HandleFunc("POST /v1/sessions/import", g.handleBlocked)
	g.mux.HandleFunc("POST /v1/sessions/{id}/export", g.handleBlocked)
	g.mux.HandleFunc("GET /v1/sessions/{id}", g.handleSession)
	g.mux.HandleFunc("DELETE /v1/sessions/{id}", g.handleSession)
	g.mux.HandleFunc("POST /v1/sessions/{id}/arrivals", g.handleSession)
	g.mux.HandleFunc("POST /v1/sessions/{id}/step", g.handleSession)
	g.mux.HandleFunc("GET /v1/sessions/{id}/schedule", g.handleSession)
	g.mux.HandleFunc("GET /v1/sessions/{id}/trace", g.handleSession)
	g.mux.HandleFunc("POST /v1/solve", g.handleSolveSubmit)
	g.mux.HandleFunc("GET /v1/solve/{id}", g.handleSolveGet)
	g.mux.HandleFunc("POST /v1/cluster/migrate", g.handleMigrate)
	g.mux.HandleFunc("POST /v1/cluster/join", g.handleJoin)
	g.mux.HandleFunc("POST /v1/cluster/leave", g.handleLeave)
	g.mux.HandleFunc("GET /v1/cluster/nodes", g.handleNodes)
	g.mux.HandleFunc("GET /v1/traces", g.handleTraceList)
	g.mux.HandleFunc("GET /v1/traces/{traceID}", g.handleTraceGet)
	g.mux.HandleFunc("GET /healthz", g.handleHealth)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// Close stops the health prober and closes the client's idle backend
// connections. In-flight proxied requests finish on their own; the
// gateway holds nothing else.
func (g *Gateway) Close() {
	g.health.Stop()
	g.client.CloseIdleConnections()
}

// Ring exposes the hash ring (tests and cmd wiring).
func (g *Gateway) Ring() *Ring { return g.ring }

func normalizeNode(b string) (string, error) {
	n := strings.TrimRight(strings.TrimSpace(b), "/")
	if !strings.HasPrefix(n, "http://") && !strings.HasPrefix(n, "https://") {
		return "", fmt.Errorf("cluster: backend %q is not an http(s) base URL", b)
	}
	return n, nil
}

// gatewayTraced reports whether a request path gets a proxy root span:
// the routed /v1 API only. The trace API itself is excluded (reading
// traces must not mint them) and so are the cluster admin endpoints,
// which are operator actions rather than request traffic.
func gatewayTraced(p string) bool {
	return strings.HasPrefix(p, "/v1/") &&
		!strings.HasPrefix(p, "/v1/traces") &&
		!strings.HasPrefix(p, "/v1/cluster")
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusCapture{ResponseWriter: w, status: http.StatusOK}
	ctx := r.Context()
	var act *trace.Active
	if g.spans != nil && gatewayTraced(r.URL.Path) {
		parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
		act = g.spans.StartSpan(trace.PhaseProxy, parent, map[string]string{
			"method": r.Method,
			"path":   r.URL.Path,
		})
		ctx = trace.WithActive(ctx, act)
		// Tell the client which trace its request landed in, whether the
		// trace was minted here or continued from the request header.
		w.Header().Set("traceparent", trace.FormatTraceparent(act.Context()))
	}
	g.mux.ServeHTTP(sw, r.WithContext(ctx))
	if act != nil {
		act.SetAttr("status", strconv.Itoa(sw.status))
		act.Finish()
	}
	g.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("latency", time.Since(start)))
}

// forwardTraceparent is the traceparent header value a backend send on
// behalf of this request should carry: the gateway's own proxy span when
// one is open (so the backend's http span nests under it), else the
// client's header verbatim (recording off here must not break the
// client-to-backend trace).
func forwardTraceparent(r *http.Request) string {
	if act := trace.ActiveFrom(r.Context()); act != nil {
		return trace.FormatTraceparent(act.Context())
	}
	return r.Header.Get("traceparent")
}

type statusCapture struct {
	http.ResponseWriter
	status int
}

func (w *statusCapture) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// newSessionID mints a gateway-chosen session ID.
func (g *Gateway) newSessionID() string {
	return fmt.Sprintf("g-%s-%06d", g.idPrefix, g.idSeq.Add(1))
}

// route returns the node a session ID maps to: the override table wins
// (a rebalance or off-ring migration is pinning it), then the ring.
func (g *Gateway) route(id string) (string, bool) {
	g.mu.RLock()
	node, ok := g.overrides[id]
	g.mu.RUnlock()
	if ok {
		return node, true
	}
	return g.ring.Owner(id)
}

func (g *Gateway) setOverride(id, node string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.overrides[id] = node
}

func (g *Gateway) clearOverride(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.overrides, id)
}

// sendResult is one backend exchange: any HTTP status is a success at
// this layer (the backend answered; its verdict passes through).
type sendResult struct {
	status int
	header http.Header
	body   []byte
}

// send issues an untraced backend exchange (health probes, scrapes,
// migration plumbing); see sendTraced.
func (g *Gateway) send(method, node, path string, body []byte) (sendResult, error) {
	return g.sendTraced(method, node, path, body, "")
}

// sendTraced issues method path to node with up to 1+Retries attempts,
// carrying traceparent (when non-empty) so the backend joins the
// request's trace. Transport failures retry with linear backoff; an HTTP
// status never retries here (the caller decides what a 503 means).
// Non-idempotent methods retry only on dial failures — the one failure
// class that proves the request never reached the backend, so a retry
// cannot double-apply a step or an arrivals batch.
func (g *Gateway) sendTraced(method, node, path string, body []byte, traceparent string) (sendResult, error) {
	var lastErr error
	for attempt := 0; attempt <= g.opts.Retries; attempt++ {
		if attempt > 0 {
			g.metrics.retries.Add(1)
			time.Sleep(time.Duration(attempt) * g.opts.RetryBackoff)
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, node+path, rd)
		if err != nil {
			return sendResult{}, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := g.client.Do(req)
		if err != nil {
			lastErr = err
			if isDialError(err) {
				// The backend is unreachable: tell the health table now
				// instead of waiting a probe cycle, and retry freely (the
				// request never left the gateway).
				g.health.MarkUnready(node)
				continue
			}
			if idempotent(method) {
				continue
			}
			// A non-idempotent request failed after it may have been sent
			// (connection dropped mid-exchange). Retrying could apply the
			// command twice — surface the failure instead.
			return sendResult{}, lastErr
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			if idempotent(method) {
				continue
			}
			return sendResult{}, lastErr
		}
		return sendResult{status: resp.StatusCode, header: resp.Header, body: respBody}, nil
	}
	return sendResult{}, lastErr
}

// maxProxyBody bounds a relayed backend response; matches the backend's
// own request-body bound.
const maxProxyBody = 8 << 20

func idempotent(method string) bool {
	return method == http.MethodGet || method == http.MethodHead || method == http.MethodDelete
}

func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// relay writes a backend's answer through to the client.
func (g *Gateway) relay(w http.ResponseWriter, res sendResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	if _, err := w.Write(res.body); err != nil {
		// Client went away; nothing to do.
		_ = err
	}
	g.metrics.proxied.Add(1)
}

// proxyTo forwards the request body to the session's node and relays
// the answer, with the fail-open contract: an unready owner is an
// immediate 503 + Retry-After (the client backs off and retries once
// the node recovers or the session migrates), and exhausted transport
// retries are a 502.
func (g *Gateway) proxyTo(w http.ResponseWriter, node, method, path string, body []byte, traceparent string) {
	if !g.health.Ready(node) {
		g.metrics.unroutable.Add(1)
		writeRetryError(w, http.StatusServiceUnavailable, fmt.Sprintf("node %s is not ready; retry shortly", node))
		return
	}
	res, err := g.sendTraced(method, node, path, body, traceparent)
	if err != nil {
		g.metrics.proxyErrors.Add(1)
		writeRetryError(w, http.StatusBadGateway, fmt.Sprintf("node %s unreachable: %v", node, err))
		return
	}
	g.relay(w, res)
}

// readBody buffers a request body (bounded) so it can be re-sent on
// retry. Returns nil on a bodyless request.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, nil
	}
	return body, nil
}

func writeGatewayJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		_ = err // headers are gone; drop the connection
	}
}

func writeGatewayError(w http.ResponseWriter, status int, msg string) {
	writeGatewayJSON(w, status, server.ErrorResponse{Error: msg})
}

func writeRetryError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", "1")
	writeGatewayError(w, status, msg)
}

// handleCreate mints the session ID (unless the client pinned one),
// hashes it onto a node, and forwards the create there.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	var req server.CreateSessionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeGatewayError(w, http.StatusBadRequest, fmt.Sprintf("malformed request body: %v", err))
		return
	}
	if req.ID == "" {
		req.ID = g.newSessionID()
	}
	node, ok := g.route(req.ID)
	if !ok {
		g.metrics.unroutable.Add(1)
		writeRetryError(w, http.StatusServiceUnavailable, "no backends in the ring")
		return
	}
	out, err := json.Marshal(req)
	if err != nil {
		writeGatewayError(w, http.StatusInternalServerError, err.Error())
		return
	}
	trace.ActiveFrom(r.Context()).SetAttr("node", node)
	g.proxyTo(w, node, http.MethodPost, "/v1/sessions", out, forwardTraceparent(r))
}

// handleSession routes a session-scoped request by its ID.
func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node, ok := g.route(id)
	if !ok {
		g.metrics.unroutable.Add(1)
		writeRetryError(w, http.StatusServiceUnavailable, "no backends in the ring")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	trace.ActiveFrom(r.Context()).SetAttr("node", node)
	g.proxyTo(w, node, r.Method, path, body, forwardTraceparent(r))
}

// handleBlocked rejects the node-internal migration endpoints: handoff
// through the gateway goes via POST /v1/cluster/migrate, which keeps
// the routing table consistent with where sessions actually live.
func (g *Gateway) handleBlocked(w http.ResponseWriter, r *http.Request) {
	writeGatewayError(w, http.StatusForbidden,
		"session import/export is node-internal; use POST /v1/cluster/migrate")
}

// handleList merges the session lists of every ring member. Unready or
// unreachable nodes are skipped — their sessions are unroutable right
// now anyway — so the listing is best-effort by design.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	merged := server.SessionListResponse{Sessions: []server.SessionInfo{}}
	for _, node := range g.ring.Nodes() {
		if !g.health.Ready(node) {
			continue
		}
		list, err := g.fetchSessions(node)
		if err != nil {
			g.log.Warn("listing sessions", "node", node, "err", err)
			continue
		}
		merged.Sessions = append(merged.Sessions, list...)
	}
	sortInfos(merged.Sessions)
	g.metrics.proxied.Add(1)
	writeGatewayJSON(w, http.StatusOK, merged)
}

// fetchSessions lists one node's live sessions.
func (g *Gateway) fetchSessions(node string) ([]server.SessionInfo, error) {
	res, err := g.send(http.MethodGet, node, "/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", res.status, strings.TrimSpace(string(res.body)))
	}
	var list server.SessionListResponse
	if err := json.Unmarshal(res.body, &list); err != nil {
		return nil, fmt.Errorf("decoding session list: %w", err)
	}
	return list.Sessions, nil
}

func sortInfos(infos []server.SessionInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

// nodeToken is the stable short handle a node is addressed by inside
// composite solve IDs ("<token>~<handle>"). Derived from the node URL,
// so any gateway over the same backend set resolves the same tokens —
// the gateway stays stateless.
func nodeToken(node string) string {
	return fmt.Sprintf("%08x", uint32(hash64(node)>>32))
}

func (g *Gateway) nodeByToken(token string) (string, bool) {
	for _, n := range g.ring.Nodes() {
		if nodeToken(n) == token {
			return n, true
		}
	}
	return "", false
}

// handleSolveSubmit routes an offline solve by the hash of its body, so
// identical submissions land on the same node and share its result
// cache, and rewrites the returned handle to carry the node token.
func (g *Gateway) handleSolveSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	node, ok := g.ring.Owner("solve:" + fmt.Sprintf("%016x", hash64(string(body))))
	if !ok {
		g.metrics.unroutable.Add(1)
		writeRetryError(w, http.StatusServiceUnavailable, "no backends in the ring")
		return
	}
	if !g.health.Ready(node) {
		// Solves are stateless; any ready node can take one. Prefer the
		// hash owner for cache locality, fall back to anyone alive.
		node, ok = g.anyReadyNode()
		if !ok {
			g.metrics.unroutable.Add(1)
			writeRetryError(w, http.StatusServiceUnavailable, "no ready backends")
			return
		}
	}
	trace.ActiveFrom(r.Context()).SetAttr("node", node)
	res, err := g.sendTraced(http.MethodPost, node, "/v1/solve", body, forwardTraceparent(r))
	if err != nil {
		g.metrics.proxyErrors.Add(1)
		writeRetryError(w, http.StatusBadGateway, fmt.Sprintf("node %s unreachable: %v", node, err))
		return
	}
	if res.status == http.StatusAccepted || res.status == http.StatusOK {
		var sub server.SolveSubmitResponse
		if err := json.Unmarshal(res.body, &sub); err == nil && sub.ID != "" {
			sub.ID = nodeToken(node) + "~" + sub.ID
			g.metrics.proxied.Add(1)
			writeGatewayJSON(w, res.status, sub)
			return
		}
	}
	g.relay(w, res)
}

// handleSolveGet resolves a composite solve handle back to its node.
func (g *Gateway) handleSolveGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	token, handle, ok := strings.Cut(id, "~")
	if !ok {
		writeGatewayError(w, http.StatusBadRequest, fmt.Sprintf(
			"solve id %q is not a gateway handle (want <node>~<handle>)", id))
		return
	}
	node, ok := g.nodeByToken(token)
	if !ok {
		writeGatewayError(w, http.StatusNotFound, fmt.Sprintf(
			"solve handle %q names a node no longer in the ring", id))
		return
	}
	if !g.health.Ready(node) {
		g.metrics.unroutable.Add(1)
		writeRetryError(w, http.StatusServiceUnavailable, fmt.Sprintf("node %s is not ready; retry shortly", node))
		return
	}
	trace.ActiveFrom(r.Context()).SetAttr("node", node)
	res, err := g.sendTraced(http.MethodGet, node, "/v1/solve/"+handle, nil, forwardTraceparent(r))
	if err != nil {
		g.metrics.proxyErrors.Add(1)
		writeRetryError(w, http.StatusBadGateway, fmt.Sprintf("node %s unreachable: %v", node, err))
		return
	}
	if res.status == http.StatusOK {
		var st server.SolveStatusResponse
		if err := json.Unmarshal(res.body, &st); err == nil && st.ID != "" {
			st.ID = token + "~" + st.ID
			g.metrics.proxied.Add(1)
			writeGatewayJSON(w, res.status, st)
			return
		}
	}
	g.relay(w, res)
}

func (g *Gateway) anyReadyNode() (string, bool) {
	for _, n := range g.ring.Nodes() {
		if g.health.Ready(n) {
			return n, true
		}
	}
	return "", false
}

// ClusterNode is one member's status in GET /v1/cluster/nodes.
type ClusterNode struct {
	Node     string `json:"node"`
	Ready    bool   `json:"ready"`
	Sessions int    `json:"sessions"`
}

// ClusterNodesResponse is the GET /v1/cluster/nodes body.
type ClusterNodesResponse struct {
	Nodes []ClusterNode `json:"nodes"`
}

func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	resp := ClusterNodesResponse{Nodes: []ClusterNode{}}
	for _, node := range g.ring.Nodes() {
		cn := ClusterNode{Node: node, Ready: g.health.Ready(node), Sessions: -1}
		if cn.Ready {
			if list, err := g.fetchSessions(node); err == nil {
				cn.Sessions = len(list)
			}
		}
		resp.Nodes = append(resp.Nodes, cn)
	}
	writeGatewayJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	ready := 0
	nodes := g.ring.Nodes()
	for _, n := range nodes {
		if g.health.Ready(n) {
			ready++
		}
	}
	writeGatewayJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "nodes": len(nodes), "ready": ready,
	})
}
