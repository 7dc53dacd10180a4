package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// refRing is the plain reference a Ring must be indistinguishable from:
// every event kept whole, the last capacity of them reported.
type refRing struct {
	capacity int
	events   []DecisionEvent
}

func (r *refRing) emit(ev DecisionEvent) { r.events = append(r.events, ev) }

func (r *refRing) snapshot() (events []DecisionEvent, emitted, dropped int64) {
	held := r.events[max(len(r.events)-r.capacity, 0):]
	return held, int64(len(r.events)), int64(len(r.events) - len(held))
}

// extremeInts are the int values on and around the packed int32 range.
var extremeInts = []int{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64, math.MinInt64}

var extremeInt64s = []int64{0, 1, -1, math.MaxInt32 + 1, math.MaxInt64, math.MinInt64}

func randomEvent(rng *rand.Rand, seq int64, distinctRules int) DecisionEvent {
	pickInt := func() int {
		if rng.Intn(4) == 0 {
			return extremeInts[rng.Intn(len(extremeInts))]
		}
		return rng.Intn(1000)
	}
	pickInt64 := func() int64 {
		if rng.Intn(4) == 0 {
			return extremeInt64s[rng.Intn(len(extremeInt64s))]
		}
		return rng.Int63n(1 << 40)
	}
	alg := []string{"alg1", "alg2", "alg2multi", ""}[rng.Intn(4)]
	return DecisionEvent{
		Seq:             seq,
		Time:            pickInt64(),
		Machine:         pickInt(),
		Alg:             alg,
		Rule:            fmt.Sprintf("%s.rule-%d", alg, rng.Intn(distinctRules)),
		QueueLen:        pickInt(),
		QueueWeight:     pickInt64(),
		ProspectiveFlow: pickInt64(),
		Calibrations:    pickInt(),
		AccruedCost:     pickInt64(),
	}
}

// TestRingPackedRoundTrip drives a Ring and a reference ring of plain
// DecisionEvents with the same random events, extreme field values and
// thousands of distinct rule strings included, and requires identical
// snapshots, counters and JSON after every emit. The name table and the
// map of int32-overflowing events stay bounded by the held events.
func TestRingPackedRoundTrip(t *testing.T) {
	if size := unsafe.Sizeof(packedEvent{}); size > 56 {
		t.Fatalf("packedEvent is %d bytes, want <= 56", size)
	}
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 2, 3, 16, 100} {
		for _, distinct := range []int{1, 5, 5000} {
			r, ref := NewRing(capacity), &refRing{capacity: capacity}
			for seq := int64(1); seq <= int64(8*capacity+40); seq++ {
				e := randomEvent(rng, seq, distinct)
				r.Emit(e)
				ref.emit(e)
				got, emitted, dropped := r.Snapshot()
				want, wantEmitted, wantDropped := ref.snapshot()
				if emitted != wantEmitted || dropped != wantDropped {
					t.Fatalf("cap %d: after %d emits counters %d/%d, want %d/%d", capacity, seq, emitted, dropped, wantEmitted, wantDropped)
				}
				if !reflect.DeepEqual(got, append([]DecisionEvent{}, want...)) {
					t.Fatalf("cap %d, %d rules: after %d emits\n got %+v\nwant %+v", capacity, distinct, seq, got, want)
				}
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(want)
				if string(gotJSON) != string(wantJSON) {
					t.Fatalf("cap %d: JSON differs after %d emits", capacity, seq)
				}
				if len(r.names) > max(2*capacity, minNames)+1 || len(r.wide) > capacity {
					t.Fatalf("cap %d: %d names and %d wide events for %d held", capacity, len(r.names), len(r.wide), capacity)
				}
			}
		}
	}
}

// BenchmarkRingEmit is one Emit into a full ring of a session's default
// capacity, cycling through one engine's rule names.
func BenchmarkRingEmit(b *testing.B) {
	r := NewRing(1024)
	rules := []string{"alg2.weight-open", "alg2.queue-full-open", "alg2.flow-open"}
	emit := func(i int) {
		r.Emit(DecisionEvent{
			Seq: int64(i), Time: int64(3 * i), Alg: "alg2", Rule: rules[i%len(rules)],
			QueueLen: i % 7, QueueWeight: int64(i % 31), ProspectiveFlow: int64(i % 97),
			Calibrations: i, AccruedCost: int64(12 * i),
		})
	}
	for i := range r.Capacity() {
		emit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(i)
	}
}
