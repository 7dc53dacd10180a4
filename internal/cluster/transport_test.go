package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calibsched/internal/server"
)

// countConns starts h on an httptest server that counts the TCP
// connections it accepts.
func countConns(t testing.TB, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &opened
}

// countedBackend is bootBackend with a connection count.
func countedBackend(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts, opened := countConns(t, srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("backend shutdown: %v", err)
		}
	})
	return ts, opened
}

// TestGatewayReusesBackendConnections drives 16 sessions at once through
// a gateway over two backends: the gateway never has more than 16
// exchanges in flight, so it must open no more backend connections than
// that.
func TestGatewayReusesBackendConnections(t *testing.T) {
	const sessions, rounds = 16, 25
	b1, n1 := countedBackend(t)
	b2, n2 := countedBackend(t)
	_, gw := bootGateway(t, b1.URL, b2.URL)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = sessions
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	post := func(url, body string) (int, []byte, error) {
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, raw, err := post(gw.URL+"/v1/sessions", `{"t":4,"g":8,"alg":"alg2"}`)
			if err != nil || status != http.StatusCreated {
				t.Errorf("create: %d %s %v", status, raw, err)
				return
			}
			id := raw[bytes.Index(raw, []byte(`"id":"`))+6:]
			id = id[:bytes.IndexByte(id, '"')]
			base := gw.URL + "/v1/sessions/" + string(id)
			for r := 0; r < rounds; r++ {
				job := fmt.Sprintf(`{"jobs":[{"release":%d,"weight":1}]}`, 2*r)
				if status, raw, err := post(base+"/arrivals", job); err != nil || status != http.StatusOK {
					t.Errorf("arrivals: %d %s %v", status, raw, err)
					return
				}
				if status, raw, err := post(base+"/step", `{"steps":2}`); err != nil || status != http.StatusOK {
					t.Errorf("step: %d %s %v", status, raw, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if opened := n1.Load() + n2.Load(); opened > sessions {
		t.Errorf("gateway opened %d backend connections for %d requests with at most %d in flight",
			opened, sessions*(1+2*rounds), sessions)
	}
}

// TestGatewaySurvivesBackendClosingIdleConnections closes every
// connection from the backend's side between requests: the next POST
// through the gateway must still succeed, and be applied exactly once.
func TestGatewaySurvivesBackendClosingIdleConnections(t *testing.T) {
	b := bootBackend(t)
	_, gw := bootGateway(t, b.URL)
	var info server.SessionInfo
	if status := call(t, "POST", gw.URL+"/v1/sessions", server.CreateSessionRequest{T: 4, G: 8, Alg: "alg2"}, &info); status != 201 {
		t.Fatalf("create: status %d", status)
	}
	for i := 1; i <= 5; i++ {
		b.CloseClientConnections()
		if status := call(t, "POST", gw.URL+"/v1/sessions/"+info.ID+"/arrivals", server.ArrivalsRequest{
			Jobs: []server.JobSpec{{Release: int64(i), Weight: 1}},
		}, nil); status != 200 {
			t.Fatalf("arrivals %d after the backend closed idle connections: status %d", i, status)
		}
		var got server.SessionInfo
		if status := call(t, "GET", b.URL+"/v1/sessions/"+info.ID, nil, &got); status != 200 || got.Jobs != i {
			t.Fatalf("after arrivals %d: status %d, %d jobs accepted, want %d", i, status, got.Jobs, i)
		}
	}
}

// TestGatewayDeadBackendDialRetry: a send to a backend that refuses
// connections fails with a dial error, which retries (even a POST, as
// the request never left) and marks the node unready at once.
func TestGatewayDeadBackendDialRetry(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	g, err := NewGateway(Options{
		Backends:       []string{deadURL},
		HealthInterval: time.Hour, // no probe runs; only MarkUnready changes readiness
		Retries:        2,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	_, err = g.send(http.MethodPost, deadURL, "/v1/sessions/x/arrivals", []byte(`{"jobs":[]}`))
	if !isDialError(err) {
		t.Fatalf("send to a dead backend: %v, want a dial error", err)
	}
	if n := g.metrics.retries.Load(); n != 2 {
		t.Errorf("%d retries, want 2", n)
	}
	if g.health.Ready(deadURL) {
		t.Error("dead backend still ready after a dial error")
	}
}

// TestGatewayRelaysChunkedSchedule reads a schedule long enough for the
// backend to send it chunked, directly and through the gateway: the
// bytes must match.
func TestGatewayRelaysChunkedSchedule(t *testing.T) {
	b := bootBackend(t)
	_, gw := bootGateway(t, b.URL)
	var info server.SessionInfo
	if status := call(t, "POST", gw.URL+"/v1/sessions", server.CreateSessionRequest{T: 4, G: 8, Alg: "alg2"}, &info); status != 201 {
		t.Fatalf("create: status %d", status)
	}
	jobs := make([]server.JobSpec, 400)
	for i := range jobs {
		jobs[i] = server.JobSpec{Release: int64(i / 2), Weight: 1}
	}
	if status := call(t, "POST", gw.URL+"/v1/sessions/"+info.ID+"/arrivals", server.ArrivalsRequest{Jobs: jobs}, nil); status != 200 {
		t.Fatalf("arrivals: status %d", status)
	}
	if status := call(t, "POST", gw.URL+"/v1/sessions/"+info.ID+"/step", server.StepRequest{Steps: 1000}, nil); status != 200 {
		t.Fatalf("step: status %d", status)
	}
	resp, err := http.Get(b.URL + "/v1/sessions/" + info.ID + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("backend sent the %d-byte schedule with transfer encoding %v, want chunked", len(direct), resp.TransferEncoding)
	}
	for i := 0; i < 2; i++ { // the second read reuses the pooled connection
		status, relayed := callRaw(t, "GET", gw.URL+"/v1/sessions/"+info.ID+"/schedule", nil)
		if status != 200 || !bytes.Equal(relayed, direct) {
			t.Fatalf("read %d: gateway relayed status %d, %d bytes; differs from the backend's %d bytes", i, status, len(relayed), len(direct))
		}
	}
}

// TestTransportReusesOnlyAfterEOF: a body read to EOF hands its
// connection back; a body closed early, or a response marked
// Connection: close, costs the connection.
func TestTransportReusesOnlyAfterEOF(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	ts, opened := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/big":
			io.WriteString(w, big)
		case "/close":
			w.Header().Set("Connection", "close")
			io.WriteString(w, "bye")
		default:
			io.WriteString(w, "ok")
		}
	}))
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	get := func(path string, readAll bool) {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if readAll {
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
	}
	steps := []struct {
		path    string
		readAll bool
		opened  int64 // connections opened once this request is done
	}{
		{"/", true, 1},
		{"/big", true, 1},   // reused, and handed back at EOF
		{"/", true, 1},      // reused again
		{"/big", false, 1},  // reused, then closed unread
		{"/", true, 2},      // so this one dials
		{"/close", true, 2}, // reused, but the backend says close
		{"/", true, 3},      // so this one dials
		{"/", true, 3},      // and is reused
		{"/", false, 3},     // a tiny body closed unread...
		{"/", true, 4},      // ...also costs the connection
	}
	for i, s := range steps {
		get(s.path, s.readAll)
		if got := opened.Load(); got != s.opened {
			t.Fatalf("step %d (%s): %d connections opened, want %d", i, s.path, got, s.opened)
		}
	}
}

// TestTransportDeadline: Timeout, or a sooner context deadline, bounds
// the exchange as a connection deadline.
func TestTransportDeadline(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	check := func(name string, tr *Transport, ctx context.Context) {
		t.Helper()
		defer tr.CloseIdleConnections()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := (&http.Client{Transport: tr}).Do(req)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("%s: exchange with a stalled backend succeeded", name)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("%s: %v, want a timeout", name, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: gave up after %v", name, d)
		}
	}
	check("Timeout", &Transport{Timeout: 50 * time.Millisecond}, context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	check("context deadline", &Transport{Timeout: time.Hour}, ctx)
}

// BenchmarkBackendExchange is one small POST and its JSON answer over
// loopback, through net/http.Transport (as calibgate used, two idle
// connections per host) and through Transport: "serial" from one
// goroutine, "concurrent" from 16 at once.
func BenchmarkBackendExchange(b *testing.B) {
	answer := []byte(`{"now":16,"stepped":16,"pending":3,"buffered":0,"calibrations":2}` + "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(answer)
	}))
	defer ts.Close()
	body := []byte(`{"steps":16}`)
	exchange := func(client *http.Client) error {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/s-000001/step", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		return err
	}
	transports := []struct {
		name string
		tr   func() http.RoundTripper
	}{
		{"http.Transport", func() http.RoundTripper { return http.DefaultTransport.(*http.Transport).Clone() }},
		{"Transport", func() http.RoundTripper { return &Transport{} }},
	}
	for _, tc := range transports {
		b.Run(tc.name+"/serial", func(b *testing.B) {
			client := &http.Client{Transport: tc.tr()}
			defer client.CloseIdleConnections()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := exchange(client); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/concurrent", func(b *testing.B) {
			client := &http.Client{Transport: tc.tr()}
			defer client.CloseIdleConnections()
			b.ReportAllocs()
			var next atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := exchange(client); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
