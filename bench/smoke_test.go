package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload end to end and the traced ladder
// against in-process servers, with short lives and phases: the whole
// harness, verification included, in a few seconds.
func TestQuickSmoke(t *testing.T) {
	work := t.TempDir()
	for _, wl := range workloads {
		start := time.Now()
		res, err := runWorkload(wl, runConfig{
			seed: 5, seconds: 0.5, lifeDiv: 10,
			work: work, launch: inProcLauncher{}, steady: 10,
		})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wl.name, res.failed, res.attempted, res.errs)
		}
		for _, m := range append(append([]metricDef(nil), endToEnd...), diagnostics[:2]...) {
			if v, ok := res.metrics[m.name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", wl.name, m.name, v)
			}
		}
		t.Logf("%s: %d ops in %s: %v", wl.name, res.attempted, time.Since(start), res.metrics)
	}

	l := &ladder{
		seed: 5, lifeDiv: 10, k: 2, scale: 0.05, slice: 50 * time.Millisecond,
		work: filepath.Join(work, "ladder"), tr: newTracer(),
		vals: make(map[string][]float64), solve: newSolveStream(5), expect: make(map[int]int64),
	}
	if err := os.MkdirAll(l.work, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.run(); err != nil {
		t.Fatal(err)
	}
	if len(l.bad) > 0 || l.checked == 0 {
		t.Errorf("ladder verified %d outputs, mismatches: %v", l.checked, l.bad)
	}
	for _, m := range perLayer {
		if len(l.vals[m.name]) != l.k {
			t.Errorf("ladder reported %d values of %s, want %d", len(l.vals[m.name]), m.name, l.k)
		}
	}
	spans := filepath.Join(work, "spans.json")
	if err := l.tr.writeSpans(spans, 5); err != nil {
		t.Fatal(err)
	}
}

// TestLogWatch feeds a daemon log in pieces that split lines: only the
// whole line with the message counts, and only once.
func TestLogWatch(t *testing.T) {
	w := &logWatch{msg: []byte(`"msg":"serving"`), hit: make(chan struct{})}
	hit := func() bool {
		select {
		case <-w.hit:
			return true
		default:
			return false
		}
	}
	for i, piece := range []string{
		`{"level":"INFO","msg":"listening"}` + "\n" + `{"level":"INFO","msg":"serv`,
		`ing`,
		`"}` + "\n",
		`{"level":"INFO","msg":"serving"}` + "\n",
	} {
		if n, err := w.Write([]byte(piece)); n != len(piece) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
		if want := i >= 2; hit() != want {
			t.Fatalf("after piece %d: hit = %v, want %v", i, !want, want)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "0", "-seed", "3", "--trace", "1", "-trace"})
	want := []string{"--workload", "x", "-trace=false", "-seed", "3", "-trace=true", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
