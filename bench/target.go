package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"calibsched/internal/core"
	"calibsched/internal/online"
	"calibsched/internal/server"
)

// streamTarget is one layer's view of the session API. The end-to-end
// run drives it over HTTP; the ladder also drives the session manager and
// the bare engine through the same op stream.
type streamTarget interface {
	create(s *slot) error
	// tick posts the window's jobs and steps one tick. It runs before
	// s.ticked, so s.now() is the clock the tick starts from.
	tick(s *slot, w []server.JobSpec) error
	// read fetches the session's schedule; targets without a wire
	// format return a nil body.
	read(s *slot) ([]byte, error)
	remove(s *slot) error
}

// retirement is the final schedule of a retired session, kept for
// verification after the phase.
type retirement struct {
	slot, life int
	now        int64
	jobs       []server.JobSpec // the jobs the session was sent
	body       []byte           // GET …/schedule at retirement
}

// doOp issues slot s's next op against t. Ticks run inside a root span
// named span (a nil tracer records nothing). A retire returns the retired
// session's final schedule when the target has one.
func doOp(t streamTarget, s *slot, tr *tracer, span string) (*retirement, error) {
	switch s.next() {
	case opRead:
		_, err := t.read(s)
		return nil, err
	case opRetire:
		var ret *retirement
		body, err := t.read(s)
		if err == nil && body != nil {
			ret = &retirement{slot: s.idx, life: s.life, now: s.now(), jobs: s.jobs[:s.posted], body: bytes.Clone(body)}
		}
		if rerr := t.remove(s); err == nil {
			err = rerr
		}
		s.recycle()
		if cerr := t.create(s); err == nil {
			err = cerr
		}
		return ret, err
	}
	w := s.window()
	id := tr.root(span)
	err := t.tick(s, w)
	tr.end(id)
	s.ticked(len(w))
	return nil, err
}

// conn is one client connection. The benchmark drives a workload over at
// most two, one per CPU of its 2-CPU reference host.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer

	attempted, failed int
	errs              []string
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// retarget points the connection at a restarted fleet.
func (c *conn) retarget(base string) {
	c.client.CloseIdleConnections()
	c.base = base
}

// record counts one op and its failure, keeping the first few errors.
func (c *conn) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// call sends one request and returns the response body, valid until the
// next call. Any status other than want is an error.
func (c *conn) call(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode != want {
		msg := c.buf.Bytes()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	return c.buf.Bytes(), nil
}

// httpTarget speaks the calibserved session API, directly or through
// calibgate.
type httpTarget struct{ c *conn }

var stepBody = []byte(fmt.Sprintf(`{"steps":%d}`, stepsPerTick))

func sessionPath(s *slot) string { return "/v1/sessions/" + s.id }

func (h httpTarget) create(s *slot) error {
	body, err := json.Marshal(server.CreateSessionRequest{T: sessionT, G: sessionG, Alg: "alg2", ID: s.id})
	if err != nil {
		return err
	}
	_, err = h.c.call(http.MethodPost, "/v1/sessions", body, http.StatusCreated)
	return err
}

func (h httpTarget) tick(s *slot, w []server.JobSpec) error {
	path := sessionPath(s)
	if len(w) > 0 {
		body, err := json.Marshal(server.ArrivalsRequest{Jobs: w})
		if err != nil {
			return err
		}
		if _, err := h.c.call(http.MethodPost, path+"/arrivals", body, http.StatusOK); err != nil {
			return err
		}
	}
	resp, err := h.c.call(http.MethodPost, path+"/step", stepBody, http.StatusOK)
	if err != nil {
		return err
	}
	var st struct {
		Now int64 `json:"now"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return fmt.Errorf("session %s: decoding step response: %w", s.id, err)
	}
	if want := s.now() + stepsPerTick; st.Now != want {
		return fmt.Errorf("session %s: step acknowledged clock %d, want %d", s.id, st.Now, want)
	}
	return nil
}

func (h httpTarget) read(s *slot) ([]byte, error) {
	return h.c.call(http.MethodGet, sessionPath(s)+"/schedule", nil, http.StatusOK)
}

func (h httpTarget) remove(s *slot) error {
	_, err := h.c.call(http.MethodDelete, sessionPath(s), nil, http.StatusNoContent)
	return err
}

// sessionTarget drives a server.Manager in-process: the session worker,
// the engine and, when the manager has a store, persistence.
type sessionTarget struct{ m *server.Manager }

func (t sessionTarget) create(s *slot) error {
	_, err := t.m.Create(server.CreateSessionRequest{T: sessionT, G: sessionG, Alg: "alg2", ID: s.id})
	return err
}

func (t sessionTarget) tick(s *slot, w []server.JobSpec) error {
	sess, err := t.m.Get(s.id)
	if err != nil {
		return err
	}
	if len(w) > 0 {
		if _, err := sess.Arrivals(w, nil); err != nil {
			return err
		}
	}
	_, err = sess.Step(stepsPerTick, stepsPerTick, nil)
	return err
}

func (t sessionTarget) read(s *slot) ([]byte, error) {
	sess, err := t.m.Get(s.id)
	if err != nil {
		return nil, err
	}
	_, err = sess.Snapshot()
	return nil, err
}

func (t sessionTarget) remove(s *slot) error { return t.m.Delete(s.id) }

// engineTarget steps bare Algorithm 2 engines, one per slot, feeding each
// step exactly the jobs released at it.
type engineTarget struct {
	engs    []online.Engine
	arrived []core.Job
}

func newEngineTarget(n int) *engineTarget { return &engineTarget{engs: make([]online.Engine, n)} }

func (e *engineTarget) create(s *slot) error {
	eng, err := online.NewEngine("alg2", sessionT, sessionG)
	e.engs[s.idx] = eng
	return err
}

func (e *engineTarget) tick(s *slot, w []server.JobSpec) error {
	eng := e.engs[s.idx]
	j := 0
	for k := 0; k < stepsPerTick; k++ {
		now := eng.Now()
		e.arrived = e.arrived[:0]
		for ; j < len(w) && w[j].Release == now; j++ {
			e.arrived = append(e.arrived, core.Job{ID: s.posted + j, Release: now, Weight: w[j].Weight})
		}
		eng.Step(e.arrived)
	}
	return nil
}

func (e *engineTarget) read(*slot) ([]byte, error) { return nil, nil }

func (e *engineTarget) remove(s *slot) error {
	e.engs[s.idx] = nil
	return nil
}
