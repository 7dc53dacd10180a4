// Package metrics publishes calibserved's live operational counters via
// the standard library's expvar registry, so a plain GET /debug/vars
// exposes them with zero dependencies.
//
// This is a reporting package, deliberately outside the exact-arithmetic
// set enforced by caliblint's exactarith analyzer (see the reporting list
// in internal/lint/exactarith.go): latency observations are durations,
// not costs, and never feed back into the scheduling objective.
//
// All vars live in the process-global expvar registry, which panics on
// duplicate registration; everything here is therefore created exactly
// once at package init and shared by every Server in the process (the
// normal daemon case). Tests that boot several servers share the
// counters, so they assert on deltas, not absolutes.
package metrics

import (
	"expvar"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
)

// Counters for the serving layer, named with a "calibserved." prefix so
// they are easy to pick out of /debug/vars among the runtime defaults.
var (
	// SessionsActive is a gauge of live sessions.
	SessionsActive = expvar.NewInt("calibserved.sessions.active")
	// SessionsCreated counts every session ever created.
	SessionsCreated = expvar.NewInt("calibserved.sessions.created")
	// SessionsEvicted counts sessions removed by the idle-TTL janitor.
	SessionsEvicted = expvar.NewInt("calibserved.sessions.evicted")
	// SessionsExported counts sessions handed off to another node via
	// POST /v1/sessions/{id}/export (migration source side).
	SessionsExported = expvar.NewInt("calibserved.sessions.exported")
	// SessionsImported counts sessions received via
	// POST /v1/sessions/import (migration target side).
	SessionsImported = expvar.NewInt("calibserved.sessions.imported")
	// StepsServed counts simulated time steps across all sessions.
	StepsServed = expvar.NewInt("calibserved.steps.served")
	// ArrivalsAccepted counts jobs admitted into arrival buffers.
	ArrivalsAccepted = expvar.NewInt("calibserved.arrivals.accepted")
	// ArrivalsRejected counts jobs refused (backpressure or invalid).
	ArrivalsRejected = expvar.NewInt("calibserved.arrivals.rejected")
	// QueueDepth is a gauge of buffered-but-unscheduled arrivals summed
	// over all sessions.
	QueueDepth = expvar.NewInt("calibserved.queue.depth")
	// StepLatency is a histogram of POST .../step handling latency.
	StepLatency = newHistogram("calibserved.step.latency")
	// Per-phase latency histograms, fed from the span plane's store
	// observer (internal/trace): each accepted span of the named phase
	// lands one sample here with its trace ID as the Prometheus
	// exemplar, so a slow bucket links straight to an example trace.
	// Names use underscores (not the phase constants' dashes) because
	// dashes are illegal in Prometheus metric names.

	// PhaseHTTPLatency times whole calibserved /v1 handlers ("http").
	PhaseHTTPLatency = newHistogram("calibserved.phase.http.latency")
	// PhaseQueueWaitLatency times session-worker queue wait ("queue-wait").
	PhaseQueueWaitLatency = newHistogram("calibserved.phase.queue_wait.latency")
	// PhaseEngineStepLatency times the engine step loop ("engine-step").
	PhaseEngineStepLatency = newHistogram("calibserved.phase.engine_step.latency")
	// PhaseWALAppendLatency times WAL appends minus fsync ("wal-append").
	PhaseWALAppendLatency = newHistogram("calibserved.phase.wal_append.latency")
	// PhaseFsyncWaitLatency times fsync waits ("fsync-wait").
	PhaseFsyncWaitLatency = newHistogram("calibserved.phase.fsync_wait.latency")
	// WALAppends counts records appended across all session WALs.
	WALAppends = expvar.NewInt("calibserved.wal.appends")
	// WALBytes counts bytes appended across all session WALs.
	WALBytes = expvar.NewInt("calibserved.wal.bytes")
	// GroupCommits counts fsync groups committed by the store's group
	// committer (-fsync always with group commit enabled).
	GroupCommits = expvar.NewInt("calibserved.wal.group_commits")
	// GroupCommitRecords counts records made durable through those
	// groups; records/commits is the live amortization factor.
	GroupCommitRecords = expvar.NewInt("calibserved.wal.group_commit_records")
	// SnapshotsWritten counts snapshots persisted; each one truncates the
	// WAL behind it.
	SnapshotsWritten = expvar.NewInt("calibserved.snapshots.written")
	// RecoveredSessions counts sessions rebuilt from disk at boot.
	RecoveredSessions = expvar.NewInt("calibserved.recovery.sessions")
	// RecoveredRecords counts WAL records replayed at boot.
	RecoveredRecords = expvar.NewInt("calibserved.recovery.records")
	// RecoveryTruncations counts torn or corrupt WAL tails cut at boot.
	RecoveryTruncations = expvar.NewInt("calibserved.recovery.truncations")
	// RecoveryFailed counts session directories that could not be
	// recovered and were left on disk for inspection.
	RecoveryFailed = expvar.NewInt("calibserved.recovery.failed")

	// SolveSubmitted counts accepted POST /v1/solve requests.
	SolveSubmitted = expvar.NewInt("calibserved.solve.submitted")
	// SolveRejected counts solves refused because the pool queue was full.
	SolveRejected = expvar.NewInt("calibserved.solve.rejected")
	// SolveCacheHits counts solves answered from the result cache.
	SolveCacheHits = expvar.NewInt("calibserved.solve.cache.hits")
	// SolveCacheMisses counts solves that had to consult the pool queue.
	SolveCacheMisses = expvar.NewInt("calibserved.solve.cache.misses")
	// SolveCacheEvictions counts evictions from the result cache.
	SolveCacheEvictions = expvar.NewInt("calibserved.solve.cache.evictions")
	// SolveDedupShared counts solves that attached to an identical
	// in-flight DP run instead of starting their own.
	SolveDedupShared = expvar.NewInt("calibserved.solve.dedup.shared")
	// SolveRuns counts DP executions actually performed by pool workers.
	SolveRuns = expvar.NewInt("calibserved.solve.runs")
	// SolveCompleted counts solve handles finished with a result.
	SolveCompleted = expvar.NewInt("calibserved.solve.completed")
	// SolveFailed counts solve handles finished with an error.
	SolveFailed = expvar.NewInt("calibserved.solve.failed")
	// SolveQueueDepth is a gauge of queued (not yet running) solves.
	SolveQueueDepth = expvar.NewInt("calibserved.solve.queue.depth")
	// SolveRunning is a gauge of DP runs currently executing.
	SolveRunning = expvar.NewInt("calibserved.solve.running")
	// SolveCacheEntries is a gauge of live result-cache entries.
	SolveCacheEntries = expvar.NewInt("calibserved.solve.cache.entries")
)

// bucketBounds are the histogram's upper bounds. The last bucket is
// unbounded.
var bucketBounds = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	1 * time.Second,
}

// numBuckets is len(bucketBounds) + 1 (the overflow bucket); init
// asserts the two stay in sync.
const numBuckets = 10

func init() {
	if len(bucketBounds)+1 != numBuckets {
		panic("metrics: numBuckets out of sync with bucketBounds")
	}
}

// Histogram is a fixed-bucket latency histogram published as one expvar
// whose JSON value maps bucket labels to counts, plus "count" and
// "total_ns" for computing the mean. Observe is lock-free.
type Histogram struct {
	counts  [numBuckets]atomic.Int64
	count   atomic.Int64
	totalNS atomic.Int64
	// exemplars holds, per bucket, the most recent traced sample that
	// landed there (last-write-wins; nil until a traced sample lands).
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to a concrete trace: the trace ID
// of the most recent traced sample that landed in the bucket and that
// sample's value in seconds. Rendered as an OpenMetrics-style exemplar
// suffix on the bucket line.
type Exemplar struct {
	TraceID string
	Seconds float64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{}
	expvar.Publish(name, h)
	return h
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.totalNS.Add(int64(d))
}

// ObserveTraced records one latency sample and, when traceID is
// non-empty, pins it as the bucket's exemplar. With an empty traceID it
// is exactly Observe.
func (h *Histogram) ObserveTraced(d time.Duration, traceID string) {
	i := bucketIndex(d)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.totalNS.Add(int64(d))
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Seconds: d.Seconds()})
	}
}

func bucketIndex(d time.Duration) int {
	i := 0
	for i < len(bucketBounds) && d > bucketBounds[i] {
		i++
	}
	return i
}

// Exemplars returns the per-bucket exemplars, aligned with Snapshot's
// counts; entries are zero where no traced sample has landed.
func (h *Histogram) Exemplars() []Exemplar {
	out := make([]Exemplar, numBuckets)
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out[i] = *e
		}
	}
	return out
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// BucketBounds returns the histogram bucket upper bounds; the final
// bucket (index len(BucketBounds())) is unbounded.
func BucketBounds() []time.Duration {
	return append([]time.Duration(nil), bucketBounds...)
}

// Snapshot returns the per-bucket counts (aligned with BucketBounds plus
// one overflow bucket), the total sample count, and the summed latency in
// nanoseconds. Each load is individually atomic; a snapshot taken under
// concurrent Observe calls may be off by in-flight samples, which is fine
// for scraping.
func (h *Histogram) Snapshot() (counts []int64, count, totalNS int64) {
	counts = make([]int64, numBuckets)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.count.Load(), h.totalNS.Load()
}

// BuildInfo labels the calibserved_build_info gauge so fleet rollouts
// (mixed versions, fsync modes, engine sets) are visible in calibgate's
// aggregated exposition, which stamps each node's gauge with its node
// label.
type BuildInfo struct {
	Version   string
	GoVersion string
	Fsync     string
	Engines   string
}

var buildInfo atomic.Pointer[BuildInfo]

func init() {
	buildInfo.Store(&BuildInfo{Version: "dev", GoVersion: runtime.Version()})
}

// SetBuildInfo publishes the daemon's build identity; the daemon calls
// it once at boot. An empty GoVersion is filled from the runtime.
func SetBuildInfo(bi BuildInfo) {
	if bi.GoVersion == "" {
		bi.GoVersion = runtime.Version()
	}
	buildInfo.Store(&bi)
}

// CurrentBuildInfo returns the published build identity.
func CurrentBuildInfo() BuildInfo { return *buildInfo.Load() }

// String renders the histogram as a JSON object, satisfying expvar.Var.
func (h *Histogram) String() string {
	buf := []byte{'{'}
	for i := range h.counts {
		label := "+inf"
		if i < len(bucketBounds) {
			label = "le_" + bucketBounds[i].String()
		}
		buf = strconv.AppendQuote(buf, label)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, h.counts[i].Load(), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, fmt.Sprintf("%q:%d,%q:%d}", "count", h.count.Load(), "total_ns", h.totalNS.Load())...)
	return string(buf)
}
