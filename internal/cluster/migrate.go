package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Live session handoff and ring rebalance. The protocol is
// export → import → purge (DESIGN.md §13 has the state machine and
// failure matrix): the source drains the session's worker and hands
// back the bytes of its snap file, the target restores them through
// the crash recovery path, and only after the import has durably succeeded does
// the gateway purge the settled source copy. Every step is crash-safe:
// until the purge, the source directory is a safety net that resurrects
// the session at the source's next boot.
//
// Admin operations (migrate/join/leave) serialize on a channel
// semaphore; a second admin request answers 409 immediately instead of
// queueing behind a multi-session rebalance.

// gwError is a gateway-originated error with an HTTP status.
type gwError struct {
	status int
	msg    string
}

func (e *gwError) Error() string { return e.msg }

// MigrateRequest is the POST /v1/cluster/migrate body. Target is
// optional: empty picks the first ready node other than the current
// owner.
type MigrateRequest struct {
	Session string `json:"session"`
	Target  string `json:"target,omitempty"`
}

// MigrateResponse reports a completed handoff.
type MigrateResponse struct {
	Session string `json:"session"`
	From    string `json:"from"`
	To      string `json:"to"`
}

// JoinRequest is the POST /v1/cluster/join body.
type JoinRequest struct {
	Node string `json:"node"`
}

// LeaveRequest is the POST /v1/cluster/leave body. Force removes an
// unreachable node without draining it — its sessions are lost until
// the node returns.
type LeaveRequest struct {
	Node  string `json:"node"`
	Force bool   `json:"force,omitempty"`
}

// RebalanceResponse reports a join or leave: how many sessions the ring
// moved and which of those migrations failed (failed sessions keep
// serving from their old node via the override table).
type RebalanceResponse struct {
	Node    string   `json:"node"`
	Moved   int      `json:"moved"`
	Failed  []string `json:"failed,omitempty"`
	Members []string `json:"members"`
}

// acquireAdmin takes the admin semaphore without blocking.
func (g *Gateway) acquireAdmin() bool {
	select {
	case g.admin <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *Gateway) releaseAdmin() { <-g.admin }

func (g *Gateway) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := decodeAdmin(w, r, &req); err != nil {
		return
	}
	if req.Session == "" {
		writeGatewayError(w, http.StatusBadRequest, "session is required")
		return
	}
	if !g.acquireAdmin() {
		writeRetryError(w, http.StatusConflict, "another cluster operation is in flight; retry")
		return
	}
	defer g.releaseAdmin()
	resp, err := g.migrate(req.Session, req.Target)
	if err != nil {
		writeAdminError(w, err)
		return
	}
	writeGatewayJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := decodeAdmin(w, r, &req); err != nil {
		return
	}
	if !g.acquireAdmin() {
		writeRetryError(w, http.StatusConflict, "another cluster operation is in flight; retry")
		return
	}
	defer g.releaseAdmin()
	resp, err := g.join(req.Node)
	if err != nil {
		writeAdminError(w, err)
		return
	}
	writeGatewayJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if err := decodeAdmin(w, r, &req); err != nil {
		return
	}
	if !g.acquireAdmin() {
		writeRetryError(w, http.StatusConflict, "another cluster operation is in flight; retry")
		return
	}
	defer g.releaseAdmin()
	resp, err := g.leave(req.Node, req.Force)
	if err != nil {
		writeAdminError(w, err)
		return
	}
	writeGatewayJSON(w, http.StatusOK, resp)
}

func decodeAdmin(w http.ResponseWriter, r *http.Request, dst any) error {
	body, err := readBody(w, r)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return err
	}
	if err := json.Unmarshal(body, dst); err != nil {
		writeGatewayError(w, http.StatusBadRequest, fmt.Sprintf("malformed request body: %v", err))
		return err
	}
	return nil
}

func writeAdminError(w http.ResponseWriter, err error) {
	if ge, ok := err.(*gwError); ok {
		writeGatewayError(w, ge.status, ge.msg)
		return
	}
	writeGatewayError(w, http.StatusInternalServerError, err.Error())
}

// migrate moves one session. Caller holds the admin semaphore.
func (g *Gateway) migrate(id, target string) (MigrateResponse, error) {
	from, ok := g.route(id)
	if !ok {
		return MigrateResponse{}, &gwError{status: http.StatusServiceUnavailable, msg: "no backends in the ring"}
	}
	if target == "" {
		target, ok = g.readyNodeOtherThan(from)
		if !ok {
			return MigrateResponse{}, &gwError{status: http.StatusServiceUnavailable,
				msg: "no ready node other than the current owner to migrate to"}
		}
	} else {
		var err error
		if target, err = normalizeNode(target); err != nil {
			return MigrateResponse{}, &gwError{status: http.StatusBadRequest, msg: err.Error()}
		}
		if !g.ring.Has(target) {
			return MigrateResponse{}, &gwError{status: http.StatusBadRequest,
				msg: fmt.Sprintf("target %s is not a ring member; join it first", target)}
		}
	}
	if target == from {
		return MigrateResponse{Session: id, From: from, To: target}, nil
	}
	if err := g.handoff(id, from, target); err != nil {
		return MigrateResponse{}, err
	}
	g.log.Info("session migrated", "session", id, "from", from, "to", target)
	return MigrateResponse{Session: id, From: from, To: target}, nil
}

// handoff runs the export → import → purge protocol for one session and
// maintains the override table so routing tracks the session the moment
// it lands. Caller holds the admin semaphore.
func (g *Gateway) handoff(id, from, target string) error {
	if !g.health.Ready(target) {
		return &gwError{status: http.StatusServiceUnavailable,
			msg: fmt.Sprintf("target %s is not ready", target)}
	}
	// Export: the source drains the worker and hands back the session's
	// portable state. From this moment the session serves nowhere; a
	// request racing in observes a 404 until the import lands (clients
	// treat that as transient — see DESIGN.md §13's failure matrix).
	exp, err := g.send(http.MethodPost, from, "/v1/sessions/"+id+"/export", nil)
	if err != nil {
		g.metrics.migrationFailures.Add(1)
		return &gwError{status: http.StatusBadGateway,
			msg: fmt.Sprintf("exporting %s from %s: %v", id, from, err)}
	}
	if exp.status != http.StatusOK {
		g.metrics.migrationFailures.Add(1)
		return &gwError{status: exp.status,
			msg: fmt.Sprintf("exporting %s from %s: %s", id, from, strings.TrimSpace(string(exp.body)))}
	}

	imp, err := g.send(http.MethodPost, target, "/v1/sessions/import", exp.body)
	if err != nil || imp.status != http.StatusCreated {
		g.metrics.migrationFailures.Add(1)
		detail := ""
		if err != nil {
			detail = err.Error()
		} else {
			detail = fmt.Sprintf("status %d: %s", imp.status, strings.TrimSpace(string(imp.body)))
		}
		// Rollback: re-import the exported payload on the source, which
		// replaces its own settled directory with identical state. If even
		// that fails the session is out of serving but durable on the
		// source's disk; the source's next boot resurrects it.
		if rb, rbErr := g.send(http.MethodPost, from, "/v1/sessions/import", exp.body); rbErr != nil || rb.status != http.StatusCreated {
			g.log.Error("migration rollback failed; session will resurrect at source reboot",
				"session", id, "source", from, "err", rbErr)
			return &gwError{status: http.StatusBadGateway, msg: fmt.Sprintf(
				"importing %s on %s failed (%s) and rollback to %s failed too; session is offline until %s reboots",
				id, target, detail, from, from)}
		}
		return &gwError{status: http.StatusBadGateway,
			msg: fmt.Sprintf("importing %s on %s: %s (rolled back to %s)", id, target, detail, from)}
	}

	// The session now lives on target: pin routing there before anything
	// else, clearing the pin only when the ring already agrees.
	if ringOwner, ok := g.ring.Owner(id); ok && ringOwner == target {
		g.clearOverride(id)
	} else {
		g.setOverride(id, target)
	}
	g.metrics.migrations.Add(1)

	// Purge the settled source copy. Best-effort: a failure leaves an
	// orphaned directory that resurrects at the source's next boot, at
	// which point it answers alongside the live copy — which is why the
	// purge is retried by DELETE and logged loudly here.
	if res, err := g.send(http.MethodDelete, from, "/v1/sessions/"+id, nil); err != nil || res.status != http.StatusNoContent {
		g.log.Warn("purging migrated session's source copy failed; stale copy resurrects at source reboot",
			"session", id, "source", from, "err", err)
	}
	return nil
}

// readyNodeOtherThan picks the first ready ring member that is not
// excluded (deterministic: sorted node order).
func (g *Gateway) readyNodeOtherThan(excluded string) (string, bool) {
	for _, n := range g.ring.Nodes() {
		if n != excluded && g.health.Ready(n) {
			return n, true
		}
	}
	return "", false
}

// placements maps every reachable session to the node it lives on:
// each ready member's live list, plus standing overrides (which by
// construction point where their session actually lives).
func (g *Gateway) placements() map[string]string {
	place := make(map[string]string)
	for _, node := range g.ring.Nodes() {
		if !g.health.Ready(node) {
			continue
		}
		list, err := g.fetchSessions(node)
		if err != nil {
			g.log.Warn("listing sessions for rebalance", "node", node, "err", err)
			continue
		}
		for _, info := range list {
			place[info.ID] = node
		}
	}
	g.mu.RLock()
	for id, node := range g.overrides {
		place[id] = node
	}
	g.mu.RUnlock()
	return place
}

// join adds a node to the ring and migrates exactly the sessions whose
// ring owner changed. Placement is frozen (overrides) before the ring
// mutates, so requests keep routing to where sessions actually live
// throughout; each session's override lifts as its migration lands.
// Caller holds the admin semaphore.
func (g *Gateway) join(rawNode string) (RebalanceResponse, error) {
	node, err := normalizeNode(rawNode)
	if err != nil {
		return RebalanceResponse{}, &gwError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if g.ring.Has(node) {
		return RebalanceResponse{}, &gwError{status: http.StatusConflict,
			msg: fmt.Sprintf("node %s is already a ring member", node)}
	}
	if res, err := g.send(http.MethodGet, node, "/readyz", nil); err != nil || res.status != http.StatusOK {
		return RebalanceResponse{}, &gwError{status: http.StatusBadGateway,
			msg: fmt.Sprintf("node %s is not ready to join (err=%v)", node, err)}
	}

	place := g.placements()
	for id, owner := range place {
		g.setOverride(id, owner)
	}
	g.ring.Add(node)
	g.health.Watch(node)

	resp := g.rebalance(place)
	resp.Node = node
	resp.Members = g.ring.Nodes()
	g.metrics.rebalances.Add(1)
	g.log.Info("node joined", "node", node, "moved", resp.Moved, "failed", len(resp.Failed))
	return resp, nil
}

// leave drains a node out of the ring: its sessions migrate to their
// new ring owners, then the node is dropped from ring and health. With
// force, an unreachable node is removed without draining — its
// sessions' overrides are cleared so requests fall through to the ring
// (and 404 there) rather than 503-ing forever against a corpse.
// Caller holds the admin semaphore.
func (g *Gateway) leave(rawNode string, force bool) (RebalanceResponse, error) {
	node, err := normalizeNode(rawNode)
	if err != nil {
		return RebalanceResponse{}, &gwError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if !g.ring.Has(node) {
		return RebalanceResponse{}, &gwError{status: http.StatusNotFound,
			msg: fmt.Sprintf("node %s is not a ring member", node)}
	}

	if force {
		g.ring.Remove(node)
		g.health.Forget(node)
		g.mu.Lock()
		for id, n := range g.overrides {
			if n == node {
				delete(g.overrides, id)
			}
		}
		g.mu.Unlock()
		g.metrics.rebalances.Add(1)
		g.log.Warn("node force-removed; its sessions are offline until it returns", "node", node)
		return RebalanceResponse{Node: node, Members: g.ring.Nodes()}, nil
	}

	place := g.placements()
	for id, owner := range place {
		g.setOverride(id, owner)
	}
	g.ring.Remove(node)

	resp := g.rebalance(place)
	g.health.Forget(node)
	resp.Node = node
	resp.Members = g.ring.Nodes()
	g.metrics.rebalances.Add(1)
	g.log.Info("node left", "node", node, "moved", resp.Moved, "failed", len(resp.Failed))
	return resp, nil
}

// rebalance migrates every placed session whose current node disagrees
// with the (already mutated) ring, in sorted order for determinism.
// Successful moves lift their overrides inside handoff; sessions whose
// ring owner did not change lift theirs here; failures keep the
// override pinned to the old node, so the session keeps serving there
// and a later rebalance retries the move.
func (g *Gateway) rebalance(place map[string]string) RebalanceResponse {
	ids := make([]string, 0, len(place))
	for id := range place {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var resp RebalanceResponse
	for _, id := range ids {
		cur := place[id]
		want, ok := g.ring.Owner(id)
		if !ok {
			resp.Failed = append(resp.Failed, id)
			continue
		}
		if want == cur {
			g.clearOverride(id)
			continue
		}
		if err := g.handoff(id, cur, want); err != nil {
			g.log.Warn("rebalance migration failed; session stays on its old node",
				"session", id, "from", cur, "to", want, "err", err)
			resp.Failed = append(resp.Failed, id)
			continue
		}
		resp.Moved++
	}
	return resp
}
