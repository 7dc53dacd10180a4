package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func ev(seq int64) DecisionEvent {
	return DecisionEvent{Seq: seq, Time: seq, Rule: "alg1.flow-open", Alg: "alg1", Calibrations: int(seq)}
}

func TestRingBounded(t *testing.T) {
	r := NewRing(3)
	if r.Capacity() != 3 {
		t.Fatalf("capacity %d, want 3", r.Capacity())
	}
	for i := int64(1); i <= 5; i++ {
		r.Emit(ev(i))
	}
	events, emitted, dropped := r.Snapshot()
	if emitted != 5 || dropped != 2 {
		t.Fatalf("emitted %d dropped %d, want 5/2", emitted, dropped)
	}
	if len(events) != 3 {
		t.Fatalf("snapshot holds %d events, want 3", len(events))
	}
	for i, want := range []int64{3, 4, 5} {
		if events[i].Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first order)", i, events[i].Seq, want)
		}
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	if r.Capacity() != 1 {
		t.Fatalf("capacity %d, want clamp to 1", r.Capacity())
	}
	r.Emit(ev(1))
	r.Emit(ev(2))
	events, _, dropped := r.Snapshot()
	if len(events) != 1 || events[0].Seq != 2 || dropped != 1 {
		t.Fatalf("got %d events (seq %d), dropped %d", len(events), events[0].Seq, dropped)
	}
}

// TestRingReferenceModel checks the growing ring against a plain slice that
// keeps every event: after n emits the snapshot is the last min(n, cap)
// events in order, the counters match, Capacity reports the configured
// value from the start, and the backing array never outgrows the capacity.
func TestRingReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 1024} {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 3*capacity + 2} {
			r := NewRing(capacity)
			if r.Capacity() != capacity {
				t.Fatalf("cap %d: Capacity() = %d before the first Emit", capacity, r.Capacity())
			}
			var all []DecisionEvent
			for i := 1; i <= n; i++ {
				r.Emit(ev(int64(i)))
				all = append(all, ev(int64(i)))
				if cap(r.buf) > capacity {
					t.Fatalf("cap %d: backing array holds %d slots after %d emits", capacity, cap(r.buf), i)
				}
			}
			held := min(n, capacity)
			want := all[n-held:]
			events, emitted, dropped := r.Snapshot()
			if emitted != int64(n) || dropped != int64(n-held) {
				t.Fatalf("cap %d n %d: emitted %d dropped %d, want %d/%d", capacity, n, emitted, dropped, n, n-held)
			}
			if !reflect.DeepEqual(events, append([]DecisionEvent{}, want...)) {
				t.Fatalf("cap %d n %d: snapshot %v, want %v", capacity, n, seqs(events), seqs(want))
			}
			if r.Capacity() != capacity {
				t.Fatalf("cap %d n %d: Capacity() = %d", capacity, n, r.Capacity())
			}
		}
	}
}

func seqs(events []DecisionEvent) []int64 {
	out := make([]int64, len(events))
	for i, e := range events {
		out[i] = e.Seq
	}
	return out
}

// TestRingConcurrentAccess races a writer against snapshot readers; run
// under -race (the Makefile race target and CI do) this is the
// concurrency gate for the session-worker/HTTP-handler sharing pattern.
func TestRingConcurrentAccess(t *testing.T) {
	r := NewRing(64)
	const writes = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= writes; i++ {
			r.Emit(ev(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			events, emitted, dropped := r.Snapshot()
			if int64(len(events)) > emitted {
				t.Errorf("snapshot has %d events but only %d emitted", len(events), emitted)
				return
			}
			if dropped > emitted {
				t.Errorf("dropped %d > emitted %d", dropped, emitted)
				return
			}
			for j := 1; j < len(events); j++ {
				if events[j].Seq != events[j-1].Seq+1 {
					t.Errorf("snapshot not contiguous: seq %d after %d", events[j].Seq, events[j-1].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	events, emitted, dropped := r.Snapshot()
	if emitted != writes {
		t.Fatalf("emitted %d, want %d", emitted, writes)
	}
	if int64(len(events))+dropped != writes {
		t.Fatalf("%d buffered + %d dropped != %d written", len(events), dropped, writes)
	}
}

func TestRecorderKeepsOrder(t *testing.T) {
	rec := &Recorder{}
	for i := int64(1); i <= 4; i++ {
		rec.Emit(ev(i))
	}
	events := rec.Events()
	if len(events) != 4 || events[0].Seq != 1 || events[3].Seq != 4 {
		t.Fatalf("recorder order broken: %+v", events)
	}
}

func TestRuleDocsCoverKnownRules(t *testing.T) {
	for _, rule := range Rules() {
		if RuleDoc(rule) == "" {
			t.Errorf("rule %s has empty doc", rule)
		}
	}
	if RuleDoc("not.a.rule") != "" {
		t.Error("unknown rule should map to empty doc")
	}
}

func TestWriteExplanation(t *testing.T) {
	var b strings.Builder
	events := []DecisionEvent{
		{Seq: 1, Time: 4, Alg: "alg1", Rule: "alg1.count-open", QueueLen: 3, QueueWeight: 3,
			ProspectiveFlow: 9, Calibrations: 1, AccruedCost: 12},
		{Seq: 2, Time: 20, Alg: "alg1", Rule: "alg1.flow-open", QueueLen: 1, QueueWeight: 1,
			ProspectiveFlow: 12, Calibrations: 2, AccruedCost: 24},
	}
	if err := WriteExplanation(&b, 4, 12, events); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"calibration #1", "rule=alg1.count-open", "T*|Q| = 4*3 = 12 >= G = 12",
		"calibration #2", "prospective flow 12 >= G = 12", "Lemma 3.2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	if err := WriteExplanation(&b, 4, 12, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no calibrations") {
		t.Errorf("empty trace explanation: %q", b.String())
	}
}
