package trace

import (
	"math"
	"sync"
)

// DecisionEvent is one machine-readable calibration decision: which paper
// rule fired, where and when, and what the algorithm could see at that
// moment. Emitters (the online steppers, the batch algorithms, the offline
// DP reconstruction) fill every field; the JSON shape is the wire format of
// calibserved's GET /v1/sessions/{id}/trace endpoint and of calibsim's
// trace replay, so field tags are part of the API.
//
// DESIGN.md §8 maps each Rule identifier to the lemma of the paper that
// justifies it; RuleDoc returns the same mapping programmatically.
type DecisionEvent struct {
	// Seq is a per-emitter sequence number starting at 1.
	Seq int64 `json:"seq"`
	// Time is the scheduling step at which the calibration was opened.
	Time int64 `json:"time"`
	// Machine is the calibrated machine (always 0 on single-machine runs).
	Machine int `json:"machine"`
	// Alg names the emitting algorithm ("alg1", "alg2", "alg3",
	// "alg2multi", "offline.dp").
	Alg string `json:"alg"`
	// Rule identifies the decision rule that fired, e.g. "alg1.count-open"
	// or "alg2.flow-open"; see RuleDoc for the paper mapping.
	Rule string `json:"rule"`
	// QueueLen and QueueWeight snapshot the waiting queue at the decision:
	// number of released-but-unscheduled jobs and their total weight.
	QueueLen    int   `json:"queue_len"`
	QueueWeight int64 `json:"queue_weight"`
	// ProspectiveFlow is the queue's total weighted flow if its jobs were
	// scheduled consecutively from Time with no further arrivals — the
	// paper's f_l^q, the quantity every flow trigger compares against G.
	ProspectiveFlow int64 `json:"prospective_flow"`
	// Calibrations counts calendar entries including this one.
	Calibrations int `json:"calibrations"`
	// AccruedCost is G * Calibrations: the calibration cost spent so far.
	AccruedCost int64 `json:"accrued_cost"`
}

// Sink receives decision events. Emitters treat a nil Sink as "tracing
// off" and skip all event construction, so the untraced hot path pays only
// a nil check (benchmarked in internal/online).
//
// Emit must be safe for the emitter's goroutine; Sink implementations that
// are read concurrently (Ring) synchronize internally.
type Sink interface {
	Emit(DecisionEvent)
}

// Recorder is the simplest Sink: it appends every event to a slice. Not
// safe for concurrent use; meant for batch runs (calibsim -explain, tests).
type Recorder struct {
	events []DecisionEvent
}

// Emit implements Sink.
func (r *Recorder) Emit(ev DecisionEvent) { r.events = append(r.events, ev) }

// Events returns the recorded events in emission order.
func (r *Recorder) Events() []DecisionEvent { return r.events }

// Ring is a bounded, concurrency-safe Sink holding the most recent events.
// A full ring drops the oldest event per Emit and counts the drop. The
// backing array starts empty and doubles as events arrive, never past the
// capacity, so a session holds O(min(events, capacity)) memory: a short
// session that opens a few calibrations pays for those, not for the whole
// capacity. Events are buffered packed (packedEvent, 56 bytes against a
// DecisionEvent's 96) and rebuilt exactly by Snapshot. Writers (a session
// worker) and readers (the HTTP trace handler) may race freely; a mutex
// serializes them.
type Ring struct {
	mu       sync.Mutex
	buf      []packedEvent
	capacity int
	start    int // index of the oldest event
	n        int // events currently held
	emitted  int64
	dropped  int64

	// names interns the (Alg, Rule) pairs of the held events. wide
	// holds, by emission number, the events whose int fields overflow
	// int32.
	names []eventNames
	wide  map[int64]DecisionEvent
}

// packedEvent is a DecisionEvent as a Ring buffers it: Alg and Rule
// become one index into the ring's name table, and Machine, QueueLen and
// Calibrations shrink to int32. An event whose int fields do not fit
// keeps names == wideNames and is stored whole in Ring.wide.
type packedEvent struct {
	seq, time, queueWeight, flow, cost int64
	machine, queueLen, calibrations    int32
	names                              uint32
}

// eventNames is the interned string part of a DecisionEvent.
type eventNames struct{ alg, rule string }

// wideNames marks a packedEvent whose event lives in Ring.wide.
const wideNames = math.MaxUint32

// minNames is the name-table size below which intern never compacts.
const minNames = 16

// NewRing returns a ring holding at most capacity events (minimum 1). It
// allocates nothing until the first Emit.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{capacity: capacity}
}

// Emit implements Sink.
func (r *Ring) Emit(ev DecisionEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == len(r.buf) && r.n < r.capacity {
		r.grow()
	}
	slot := (r.start + r.n) % len(r.buf)
	if r.n == len(r.buf) {
		if r.buf[slot].names == wideNames {
			delete(r.wide, r.emitted-int64(r.n))
		}
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	} else {
		r.n++
	}
	r.pack(&r.buf[slot], &ev, r.emitted)
	r.emitted++
}

// grow doubles the backing array, clamped to the capacity. Only a ring
// full at capacity drops events and moves start, so a growing ring holds
// its events from index 0.
func (r *Ring) grow() {
	buf := make([]packedEvent, min(max(2*len(r.buf), 1), r.capacity))
	copy(buf, r.buf)
	r.buf = buf
}

// pack stores ev, the seq-th event ever emitted, into p.
func (r *Ring) pack(p *packedEvent, ev *DecisionEvent, seq int64) {
	p.seq, p.time, p.queueWeight, p.flow, p.cost = ev.Seq, ev.Time, ev.QueueWeight, ev.ProspectiveFlow, ev.AccruedCost
	// Until intern returns, a compaction it runs must skip this slot.
	p.names = wideNames
	if !fits32(ev.Machine) || !fits32(ev.QueueLen) || !fits32(ev.Calibrations) {
		if r.wide == nil {
			r.wide = make(map[int64]DecisionEvent)
		}
		r.wide[seq] = *ev
		return
	}
	p.machine, p.queueLen, p.calibrations = int32(ev.Machine), int32(ev.QueueLen), int32(ev.Calibrations)
	p.names = r.intern(eventNames{ev.Alg, ev.Rule})
}

// unpack rebuilds the seq-th event ever emitted from its buffered form.
func (r *Ring) unpack(p packedEvent, seq int64) DecisionEvent {
	if p.names == wideNames {
		return r.wide[seq]
	}
	nm := r.names[p.names]
	return DecisionEvent{
		Seq:             p.seq,
		Time:            p.time,
		Machine:         int(p.machine),
		Alg:             nm.alg,
		Rule:            nm.rule,
		QueueLen:        int(p.queueLen),
		QueueWeight:     p.queueWeight,
		ProspectiveFlow: p.flow,
		Calibrations:    int(p.calibrations),
		AccruedCost:     p.cost,
	}
}

func fits32(v int) bool { return v == int(int32(v)) }

// intern returns nm's index in the name table, adding it if new. An
// engine emits a handful of distinct names, so a scan finds them. Before
// the table grows past twice the held events it drops the names no held
// event uses, so an emitter of ever-new rule strings cannot grow it
// without bound.
func (r *Ring) intern(nm eventNames) uint32 {
	for i, have := range r.names {
		if have == nm {
			return uint32(i)
		}
	}
	if len(r.names) >= max(2*r.n, minNames) {
		r.compact()
	}
	r.names = append(r.names, nm)
	return uint32(len(r.names) - 1)
}

// compact rebuilds the name table from the held events, renumbering
// them in place.
func (r *Ring) compact() {
	renum := make([]uint32, len(r.names))
	for i := range renum {
		renum[i] = wideNames
	}
	var names []eventNames
	for i := 0; i < r.n; i++ {
		p := &r.buf[(r.start+i)%len(r.buf)]
		if p.names == wideNames {
			continue
		}
		if renum[p.names] == wideNames {
			renum[p.names] = uint32(len(names))
			names = append(names, r.names[p.names])
		}
		p.names = renum[p.names]
	}
	r.names = names
}

// Snapshot copies the buffered events oldest-first and reports how many
// events were ever emitted and how many fell off the ring.
func (r *Ring) Snapshot() (events []DecisionEvent, emitted, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	events = make([]DecisionEvent, 0, r.n)
	first := r.emitted - int64(r.n)
	for i := 0; i < r.n; i++ {
		events = append(events, r.unpack(r.buf[(r.start+i)%len(r.buf)], first+int64(i)))
	}
	return events, r.emitted, r.dropped
}

// Capacity returns the maximum number of buffered events.
func (r *Ring) Capacity() int { return r.capacity }
