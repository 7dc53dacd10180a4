// Package logsink is the stderr log sink calibserved and calibgate share.
//
// Access records (message "request" below slog.LevelWarn, one per served
// request) are buffered and written in one write(2) at most every
// FlushInterval, or as soon as FlushBytes have built up, so a response
// never waits on the log pipe and its reader wakes once per batch rather
// than once per line. Every other record — the lifecycle records
// ("listening", "serving", "drained cleanly") and anything at Warn or
// above — is written at once, after whatever was buffered before it, so
// the stream keeps its order and readiness is never delayed. Close
// flushes; a process killed without running it loses at most the last
// FlushInterval of access records.
package logsink

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

const (
	// FlushInterval bounds how long an access record waits in the buffer.
	FlushInterval = 50 * time.Millisecond
	// FlushBytes is the buffered size that forces a write before the
	// interval is up.
	FlushBytes = 32 << 10
	// AccessMsg is the message that marks an access record.
	AccessMsg = "request"
)

// Sink buffers access records in front of out. Its Write (io.Writer)
// writes at once, after the buffered records, so flag errors and fatal
// messages printed to it keep their place in the stream. Safe for
// concurrent use.
type Sink struct {
	mu     sync.Mutex
	out    io.Writer
	buf    []byte
	timer  *time.Timer // flushes the buffer FlushInterval after it fills from empty
	armed  bool
	closed bool
}

// New returns a sink writing to out.
func New(out io.Writer) *Sink { return &Sink{out: out} }

// Write writes p now, preceded by any buffered access records, in one
// write to out.
func (s *Sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return s.out.Write(p)
	}
	s.buf = append(s.buf, p...)
	if err := s.flushLocked(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// writeBatched buffers p for the next flush; after Close it writes
// through.
func (s *Sink) writeBatched(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.out.Write(p)
	}
	s.buf = append(s.buf, p...)
	if len(s.buf) >= FlushBytes {
		return len(p), s.flushLocked()
	}
	if !s.armed {
		s.armed = true
		if s.timer == nil {
			s.timer = time.AfterFunc(FlushInterval, s.tick)
		} else {
			s.timer.Reset(FlushInterval)
		}
	}
	return len(p), nil
}

func (s *Sink) tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = false
	// A failed flush has nowhere to be reported but the stream that
	// failed; the records are dropped, as an unbuffered write would.
	_ = s.flushLocked()
}

func (s *Sink) flushLocked() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.out.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// Close flushes the buffer and stops the flush timer; records written
// afterwards go straight to out.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	return s.flushLocked()
}

// Handler returns a JSON slog.Handler over the sink: access records are
// batched, every other record is written at once.
func (s *Sink) Handler(opts *slog.HandlerOptions) slog.Handler {
	return &handler{
		now:     slog.NewJSONHandler(s, opts),
		batched: slog.NewJSONHandler(batchWriter{s}, opts),
	}
}

type batchWriter struct{ s *Sink }

func (w batchWriter) Write(p []byte) (int, error) { return w.s.writeBatched(p) }

// handler routes each record to one of two JSON handlers that share the
// options and the attrs and groups added through With.
type handler struct{ now, batched slog.Handler }

func (h *handler) Enabled(ctx context.Context, l slog.Level) bool { return h.now.Enabled(ctx, l) }

func (h *handler) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == AccessMsg && r.Level < slog.LevelWarn {
		return h.batched.Handle(ctx, r)
	}
	return h.now.Handle(ctx, r)
}

func (h *handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &handler{now: h.now.WithAttrs(attrs), batched: h.batched.WithAttrs(attrs)}
}

func (h *handler) WithGroup(name string) slog.Handler {
	return &handler{now: h.now.WithGroup(name), batched: h.batched.WithGroup(name)}
}
