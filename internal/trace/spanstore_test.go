package trace

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refStore is the eviction rule stated plainly, scanning the whole
// insertion order per eviction: drop the oldest non-retained trace, or
// the oldest outright when every trace is retained.
type refStore struct {
	capacity int
	order    []string
	retained map[string]bool
}

func (r *refStore) add(id string, slow bool) {
	if _, ok := r.retained[id]; !ok {
		r.retained[id] = false
		r.order = append(r.order, id)
	}
	if slow {
		r.retained[id] = true
	}
	for len(r.order) > r.capacity {
		victim := 0
		for i, o := range r.order {
			if !r.retained[o] {
				victim = i
				break
			}
		}
		delete(r.retained, r.order[victim])
		r.order = append(r.order[:victim], r.order[victim+1:]...)
	}
}

// TestSpanStoreEvictionMatchesReference drives random traffic (trace
// IDs revisited after eviction, slow spans retaining traces late) into
// stores of several capacities and requires the same stored traces, in
// the same order and with the same retention, as refStore after every
// Add.
func TestSpanStoreEvictionMatchesReference(t *testing.T) {
	const slow = time.Millisecond
	for _, capacity := range []int{1, 2, 3, 5, 16} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		s := NewSpanStore(capacity, slow, "")
		ref := &refStore{capacity: capacity, retained: map[string]bool{}}
		var evictions int64
		for i := 0; i < 4000; i++ {
			id := fmt.Sprintf("t%d", rng.Intn(3*capacity+4))
			isSlow := rng.Intn(10) == 0
			d := time.Microsecond
			if isSlow {
				d = slow
			}
			before := len(ref.order)
			_, known := ref.retained[id]
			s.Add(Span{TraceID: id, SpanID: NewSpanID(), Phase: "p", Duration: d.Nanoseconds()})
			ref.add(id, isSlow)
			if !known {
				evictions += int64(before + 1 - len(ref.order))
			}
			sums := s.Summaries()
			if len(sums) != len(ref.order) {
				t.Fatalf("cap %d step %d: %d traces, want %d", capacity, i, len(sums), len(ref.order))
			}
			for k, sum := range sums {
				if sum.TraceID != ref.order[k] || sum.Retained != ref.retained[sum.TraceID] {
					t.Fatalf("cap %d step %d: trace %d is %s retained=%v, want %s retained=%v",
						capacity, i, k, sum.TraceID, sum.Retained, ref.order[k], ref.retained[ref.order[k]])
				}
			}
		}
		if st := s.Stats(); st.Traces != len(ref.order) || st.TracesEvicted != evictions {
			t.Errorf("cap %d: stats %+v, want %d traces and %d evictions", capacity, st, len(ref.order), evictions)
		}
	}
}

// TestEvictedTracesReleaseSpans: an evicted trace waiting in the
// insertion order for compaction holds none of its spans.
func TestEvictedTracesReleaseSpans(t *testing.T) {
	s := NewSpanStore(4, 0, "")
	for i := 0; i < 7; i++ {
		s.Add(Span{TraceID: fmt.Sprintf("t%d", i), SpanID: NewSpanID(), Phase: "p"})
	}
	dead := 0
	for _, tr := range s.order {
		if tr.evicted {
			dead++
			if tr.spans != nil {
				t.Errorf("evicted trace %s still holds %d spans", tr.id, len(tr.spans))
			}
		}
	}
	if dead == 0 {
		t.Fatal("no evicted trace awaiting compaction; the test checks nothing")
	}
}

// BenchmarkSpanStoreAdd adds one single-span trace to a full store, so
// every Add evicts; ns/op should not grow with the capacity.
func BenchmarkSpanStoreAdd(b *testing.B) {
	for _, capacity := range []int{1, 512, 4096} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			s := NewSpanStore(capacity, time.Second, "")
			ids := make([]string, 2*capacity+1)
			for i := range ids {
				ids[i] = NewTraceID()
			}
			sp := Span{SpanID: NewSpanID(), Phase: PhaseHTTP, Duration: int64(time.Millisecond)}
			for _, id := range ids[:capacity] {
				sp.TraceID = id
				s.Add(sp)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.TraceID = ids[(capacity+i)%len(ids)]
				s.Add(sp)
			}
		})
	}
}
