package trace

import (
	"sync"
	"time"
)

// MaxSpansPerTrace bounds one trace's span count so a single chatty
// trace (a session driven for thousands of steps under one traceparent)
// cannot monopolize the store. Later spans of an over-full trace are
// counted in Stats().SpansTruncated and dropped.
const MaxSpansPerTrace = 256

// SpanStore is the bounded per-node home of recent traces, with
// tail-based retention: eviction is FIFO over whole traces, but a trace
// containing a span at or above the slow threshold is marked retained
// and survives ordinary eviction — the slow tail is exactly what an
// operator comes looking for after the fact. Retained traces are only
// evicted when every stored trace is retained and the store is still
// over capacity (then plain FIFO applies, oldest retained first).
//
// A nil *SpanStore is "tracing off": StartSpan returns nil and Add and
// RecordPhase are no-ops.
type SpanStore struct {
	// Observer, when set before serving begins, sees every span accepted
	// by Add. The server hooks phase-latency histograms (with exemplar
	// trace IDs) here. Called outside the store lock.
	Observer func(Span)

	mu       sync.Mutex
	capacity int
	slow     time.Duration
	node     string
	traces   map[string]*storedTrace
	// order holds traces in insertion order; evicted ones stay, their
	// spans released, until the next compaction. Eviction only ever
	// marks traces evicted and retention only ever sets, so two cursors
	// advance monotonically: order[:head] is all evicted, order[:fresh]
	// holds no live non-retained trace. Each eviction is O(1) amortised.
	order       []*storedTrace
	head, fresh int

	added     int64 // spans accepted
	truncated int64 // spans dropped by MaxSpansPerTrace
	evicted   int64 // traces evicted
}

type storedTrace struct {
	id       string
	spans    []Span
	retained bool
	evicted  bool
}

// NewSpanStore builds a store holding at most capacity traces. Traces
// containing a span whose duration reaches slow are tail-retained;
// slow <= 0 disables retention (pure FIFO). node, when non-empty, is
// stamped into every accepted span that has no Node of its own.
func NewSpanStore(capacity int, slow time.Duration, node string) *SpanStore {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanStore{
		capacity: capacity,
		slow:     slow,
		node:     node,
		traces:   make(map[string]*storedTrace),
	}
}

// Add lands finished spans in the store. Spans missing a trace or span
// ID are dropped. Safe for concurrent use.
func (s *SpanStore) Add(spans ...Span) {
	if s == nil || len(spans) == 0 {
		return
	}
	var accepted []Span
	s.mu.Lock()
	for _, sp := range spans {
		if sp.TraceID == "" || sp.SpanID == "" {
			continue
		}
		if sp.Node == "" {
			sp.Node = s.node
		}
		tr := s.traces[sp.TraceID]
		if tr == nil {
			tr = &storedTrace{id: sp.TraceID}
			s.traces[sp.TraceID] = tr
			s.order = append(s.order, tr)
		}
		if len(tr.spans) >= MaxSpansPerTrace {
			s.truncated++
			continue
		}
		tr.spans = append(tr.spans, sp)
		s.added++
		if s.slow > 0 && time.Duration(sp.Duration) >= s.slow {
			tr.retained = true
		}
		if s.Observer != nil {
			accepted = append(accepted, sp)
		}
	}
	s.evictLocked()
	obs := s.Observer
	s.mu.Unlock()
	if obs != nil {
		for _, sp := range accepted {
			obs(sp)
		}
	}
}

// RecordPhase lands one finished phase span directly, for emitters that
// outlive the request's Active (the solve pool finishes flights after
// the submitting request returned its handle).
func (s *SpanStore) RecordPhase(sc SpanContext, phase string, start time.Time, d time.Duration, attrs map[string]string) {
	if s == nil || !sc.Valid() {
		return
	}
	s.Add(Span{
		TraceID:  sc.TraceID,
		SpanID:   NewSpanID(),
		Parent:   sc.SpanID,
		Phase:    phase,
		Start:    start.UnixNano(),
		Duration: d.Nanoseconds(),
		Attrs:    attrs,
	})
}

// evictLocked enforces the capacity bound: evict the oldest
// non-retained trace first; when all are retained, the oldest outright.
func (s *SpanStore) evictLocked() {
	for len(s.traces) > s.capacity {
		for s.fresh < len(s.order) && (s.order[s.fresh].evicted || s.order[s.fresh].retained) {
			s.fresh++
		}
		victim := s.fresh
		if victim == len(s.order) {
			for s.order[s.head].evicted {
				s.head++
			}
			victim = s.head
		}
		tr := s.order[victim]
		tr.evicted, tr.spans = true, nil
		delete(s.traces, tr.id)
		s.evicted++
	}
	if len(s.order) > 2*s.capacity {
		live := s.order[:0]
		for _, tr := range s.order {
			if !tr.evicted {
				live = append(live, tr)
			}
		}
		clear(s.order[len(live):])
		s.order, s.head, s.fresh = live, 0, 0
	}
}

// Trace returns a copy of one trace's spans in recording order, or nil
// when the trace is unknown (or the store is nil).
func (s *SpanStore) Trace(id string) []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.traces[id]
	if tr == nil {
		return nil
	}
	return append([]Span(nil), tr.spans...)
}

// TraceSummary is one stored trace's index entry, the element of
// GET /v1/traces.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// Spans is the stored span count.
	Spans int `json:"spans"`
	// RootPhase and RootDurationNS describe the trace's slowest local
	// root — a span whose parent is absent from this store's fragment
	// (the true root here, or the continuation of a remote parent).
	RootPhase      string `json:"root_phase"`
	RootDurationNS int64  `json:"root_duration_ns"`
	// StartUnixNS is the earliest span start.
	StartUnixNS int64 `json:"start_unix_ns"`
	// Retained marks traces pinned by the slow-trace threshold.
	Retained bool `json:"retained"`
}

// Summaries lists stored traces in insertion order (oldest first).
func (s *SpanStore) Summaries() []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, len(s.traces))
	for _, tr := range s.order[s.head:] {
		if tr.evicted {
			continue
		}
		sum := TraceSummary{TraceID: tr.id, Spans: len(tr.spans), Retained: tr.retained}
		local := make(map[string]bool, len(tr.spans))
		for _, sp := range tr.spans {
			local[sp.SpanID] = true
		}
		for i, sp := range tr.spans {
			if i == 0 || sp.Start < sum.StartUnixNS {
				sum.StartUnixNS = sp.Start
			}
			if (sp.Parent == "" || !local[sp.Parent]) && sp.Duration >= sum.RootDurationNS {
				sum.RootPhase = sp.Phase
				sum.RootDurationNS = sp.Duration
			}
		}
		out = append(out, sum)
	}
	return out
}

// StoreStats reports the store's counters for /v1/traces.
type StoreStats struct {
	Traces          int   `json:"traces"`
	Capacity        int   `json:"capacity"`
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
	SpansAdded      int64 `json:"spans_added"`
	SpansTruncated  int64 `json:"spans_truncated,omitempty"`
	TracesEvicted   int64 `json:"traces_evicted,omitempty"`
}

// Stats returns the store's counters; zero value when the store is nil.
func (s *SpanStore) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Traces:          len(s.traces),
		Capacity:        s.capacity,
		SlowThresholdNS: s.slow.Nanoseconds(),
		SpansAdded:      s.added,
		SpansTruncated:  s.truncated,
		TracesEvicted:   s.evicted,
	}
}
