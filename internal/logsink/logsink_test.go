package logsink

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder is the sink's out: it keeps the bytes and counts the writes.
type recorder struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
}

func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes++
	return r.buf.Write(p)
}

func (r *recorder) snapshot() (string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.String(), r.writes
}

func newLogger(out *recorder) (*Sink, *slog.Logger) {
	s := New(out)
	return s, slog.New(s.Handler(nil))
}

func TestLifecycleRecordWrittenAtOnce(t *testing.T) {
	out := &recorder{}
	s, log := newLogger(out)
	defer s.Close()
	log.Info(AccessMsg, "path", "/a")
	log.Info(AccessMsg, "path", "/b")
	if got, _ := out.snapshot(); got != "" {
		t.Fatalf("access records written before a flush: %q", got)
	}
	log.Info("serving")
	got, writes := out.snapshot()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], `"/a"`) || !strings.Contains(lines[1], `"/b"`) ||
		!strings.Contains(lines[2], `"msg":"serving"`) {
		t.Fatalf("want /a, /b, serving in order right after the serving record; got\n%s", got)
	}
	if writes != 1 {
		t.Errorf("%d writes, want the buffer and the lifecycle record in one", writes)
	}
	// A Warn record is written at once even with the access message.
	log.Warn(AccessMsg, "path", "/c")
	if got, _ := out.snapshot(); !strings.Contains(got, `"/c"`) {
		t.Errorf("warn-level record held back:\n%s", got)
	}
}

func TestAccessRecordsWithinFlushInterval(t *testing.T) {
	out := &recorder{}
	s, log := newLogger(out)
	defer s.Close()
	start := time.Now()
	for i := 0; i < 100; i++ {
		log.Info(AccessMsg, "i", i)
	}
	for {
		got, writes := out.snapshot()
		if strings.Count(got, "\n") == 100 {
			if writes != 1 {
				t.Errorf("100 access records took %d writes, want 1", writes)
			}
			break
		}
		if time.Since(start) > FlushInterval+time.Second {
			t.Fatalf("access records not flushed %v after the first; have %d lines", time.Since(start), strings.Count(got, "\n"))
		}
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(start); waited < FlushInterval/2 {
		t.Errorf("flushed after %v, before the %v interval", waited, FlushInterval)
	}
}

func TestFlushBytesForcesWrite(t *testing.T) {
	out := &recorder{}
	s, log := newLogger(out)
	defer s.Close()
	pad := strings.Repeat("x", 1024)
	start := time.Now()
	for i := 0; i < FlushBytes/1024+1; i++ {
		log.Info(AccessMsg, "pad", pad)
	}
	got, writes := out.snapshot()
	if time.Since(start) >= FlushInterval {
		t.Skip("logging took longer than the flush interval; the timer may have flushed")
	}
	if writes != 1 || len(got) < FlushBytes {
		t.Fatalf("%d writes of %d bytes after more than FlushBytes of access records, want one of at least %d", writes, len(got), FlushBytes)
	}
}

// TestConcurrentWritersKeepOrder logs from several goroutines at once,
// access records interleaved with warnings, and requires every record
// exactly once with each writer's records in the order it wrote them.
func TestConcurrentWritersKeepOrder(t *testing.T) {
	const writers, each = 8, 400
	out := &recorder{}
	s, log := newLogger(out)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%50 == 0 {
					log.Warn("slow", "w", w, "i", i)
				} else {
					log.Info(AccessMsg, "w", w, "i", i)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := out.snapshot()
	next := make([]int, writers)
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		var rec struct{ W, I int }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if rec.I != next[rec.W] {
			t.Fatalf("writer %d: record %d follows %d", rec.W, rec.I, next[rec.W]-1)
		}
		next[rec.W]++
	}
	for w, n := range next {
		if n != each {
			t.Errorf("writer %d: %d records, want %d", w, n, each)
		}
	}
}

func TestCloseFlushesAndWritesThrough(t *testing.T) {
	out := &recorder{}
	s, log := newLogger(out)
	log.Info(AccessMsg, "path", "/a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := out.snapshot(); !strings.Contains(got, `"/a"`) {
		t.Fatalf("Close lost a buffered record: %q", got)
	}
	log.Info(AccessMsg, "path", "/b")
	if got, _ := out.snapshot(); !strings.Contains(got, `"/b"`) {
		t.Fatalf("record after Close not written through: %q", got)
	}
}

// BenchmarkAccessRecord logs one access record into a pipe that another
// goroutine drains, as a daemon's stderr is drained by whatever reads
// it: "direct" through a JSON handler on the pipe (one write(2) per
// record, as the daemons did), "batched" through the sink.
func BenchmarkAccessRecord(b *testing.B) {
	r, w, err := os.Pipe()
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, r)
	}()
	defer func() {
		w.Close()
		<-drained
		r.Close()
	}()
	attrs := []slog.Attr{
		slog.String("method", "POST"),
		slog.String("path", "/v1/sessions/s-000001/step"),
		slog.Int("status", 200),
		slog.Duration("latency", 412*time.Microsecond),
		slog.String("session", "s-000001"),
		slog.Int64("steps", 16),
	}
	run := func(b *testing.B, log *slog.Logger) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			log.LogAttrs(context.Background(), slog.LevelInfo, AccessMsg, attrs...)
		}
	}
	b.Run("direct", func(b *testing.B) { run(b, slog.New(slog.NewJSONHandler(w, nil))) })
	b.Run("batched", func(b *testing.B) {
		s := New(w)
		defer s.Close()
		run(b, slog.New(s.Handler(nil)))
	})
}
