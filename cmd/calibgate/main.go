// Command calibgate is the cluster front door for calibserved: a
// stateless HTTP gateway that consistent-hashes session IDs across N
// backend nodes, proxies the full /v1/sessions and /v1/solve API,
// health-checks its members, aggregates their /metrics, and
// orchestrates live session migration and ring rebalance through the
// /v1/cluster admin endpoints.
//
// Quickstart (two backends plus the gateway):
//
//	calibserved -addr :8374 -data-dir /var/lib/calib/a &
//	calibserved -addr :8375 -data-dir /var/lib/calib/b &
//	calibgate -addr :8373 -backends http://127.0.0.1:8374,http://127.0.0.1:8375 &
//	curl -s -X POST localhost:8373/v1/sessions -d '{"t":10,"g":32,"alg":"alg2"}'
//	curl -s -X POST localhost:8373/v1/cluster/migrate -d '{"session":"g-..."}'
//	curl -s localhost:8373/metrics | grep -e calibgate -e calibserved
//
// The gateway holds no session state: routing is a pure function of
// the ring, so any number of calibgate processes can front the same
// backend set. DESIGN.md §13 documents the ring, the handoff protocol,
// and the failure matrix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"calibsched/internal/cluster"
	"calibsched/internal/logsink"
)

// version identifies the build in calibgate_build_info; release tooling
// overrides it with -ldflags "-X main.version=...".
var version = "dev"

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stderr, signalContext()))
}

// signalContext cancels on SIGINT/SIGTERM.
func signalContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx
}

// cliMain parses flags and runs the gateway until ctx is cancelled.
// Split from main so tests can drive a full boot/serve/drain cycle.
func cliMain(args []string, stderr io.Writer, ctx context.Context) int {
	// Everything written to stderr goes through the sink, so a message
	// printed on any exit path lands after the access records buffered
	// before it, and the deferred Close flushes the rest.
	sink := logsink.New(stderr)
	defer sink.Close()
	stderr = sink
	fs := flag.NewFlagSet("calibgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr            = fs.String("addr", ":8373", "listen address (host:port; :0 picks a free port)")
		backends        = fs.String("backends", "", "comma-separated calibserved base URLs (required; more can join at runtime)")
		vnodes          = fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
		healthInterval  = fs.Duration("health-interval", 2*time.Second, "/readyz probe cadence per backend (0 disables probing and trusts every member)")
		probeTimeout    = fs.Duration("probe-timeout", 2*time.Second, "timeout for one readiness probe")
		retries         = fs.Int("retries", 2, "transport-failure retries per proxied request")
		retryBackoff    = fs.Duration("retry-backoff", 50*time.Millisecond, "base delay between proxy retries (grows linearly)")
		requestTimeout  = fs.Duration("request-timeout", 2*time.Minute, "end-to-end timeout for one backend request (covers large step batches)")
		shutdownTimeout = fs.Duration("shutdown-timeout", 10*time.Second, "grace period for draining connections on shutdown")
		logLevel        = fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		spanStore       = fs.Int("span-store", 512, "proxy-span trace store capacity in traces for GET /v1/traces (negative disables recording; traceparent headers still forward)")
		slowThreshold   = fs.Duration("trace-slow-threshold", 250*time.Millisecond, "retain traces whose proxy span is at least this slow ahead of FIFO eviction (0 keeps pure FIFO)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "calibgate: unexpected argument %q (flags only)\n", fs.Arg(0))
		return 2
	}
	var nodes []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			nodes = append(nodes, b)
		}
	}
	if len(nodes) == 0 {
		fmt.Fprintln(stderr, "calibgate: -backends is required (comma-separated base URLs)")
		return 2
	}
	if *vnodes < 1 || *retries < 0 {
		fmt.Fprintln(stderr, "calibgate: -vnodes must be >= 1 and -retries >= 0")
		return 2
	}
	if *healthInterval < 0 || *probeTimeout <= 0 || *retryBackoff <= 0 || *requestTimeout <= 0 {
		fmt.Fprintln(stderr, "calibgate: -health-interval must be >= 0; -probe-timeout, -retry-backoff, and -request-timeout must be > 0")
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "calibgate: bad -log-level %q (want debug, info, warn, or error)\n", *logLevel)
		return 2
	}
	logger := slog.New(sink.Handler(&slog.HandlerOptions{Level: level}))
	opts := cluster.Options{
		Backends:       nodes,
		VNodes:         *vnodes,
		Client:         &http.Client{Transport: &cluster.Transport{Timeout: *requestTimeout}},
		HealthInterval: *healthInterval,
		ProbeTimeout:   *probeTimeout,
		Retries:        *retries,
		RetryBackoff:   *retryBackoff,
		Logger:         logger,

		SpanStoreSize:      *spanStore,
		SlowTraceThreshold: *slowThreshold,
		Version:            version,
	}
	if err := serve(ctx, *addr, opts, *shutdownTimeout, logger, nil); err != nil {
		fmt.Fprintln(stderr, "calibgate:", err)
		return 1
	}
	return 0
}

// serve listens on addr and proxies until ctx is cancelled, then drains
// within the grace period. When ready is non-nil it receives the bound
// address once listening (tests use it to learn the :0 port).
func serve(ctx context.Context, addr string, opts cluster.Options, grace time.Duration, logger *slog.Logger, ready chan<- string) error {
	g, err := cluster.NewGateway(opts)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	defer g.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "backends", len(opts.Backends))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{
		Handler:           g,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "grace", grace.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("http drain incomplete", "err", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained cleanly")
	return nil
}
