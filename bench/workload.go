package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"calibsched/internal/server"
)

// The op model shared by every stream-* workload: each session runs
// Algorithm 2 with T = 16 and G = 64, fed Poisson(0.25)-per-step arrivals
// with Zipf(1.4) weights in 1..9.
const (
	sessionT     = 16
	sessionG     = 64
	stepsPerTick = 16
	arrivalRate  = 0.25
	zipfS        = 1.4
	maxWeight    = 9
	// readEvery makes every 50th op of a session a GET …/schedule.
	readEvery = 50
)

// The solve-mix instance shape: POST /v1/solve kind "total" with T = 8 and
// G = 24 over 16..48 jobs; 80% of requests draw from a 96-instance hot
// set that fits the daemon's default 128-entry result cache.
const (
	solveT       = 8
	solveG       = 24
	solveMinJobs = 16
	solveMaxJobs = 48
	hotSetSize   = 96
	hotShare     = 0.8
)

// Independent PCG streams derived from the run seed.
const (
	streamDue  = 0xd0e << 40
	streamHot  = 0x407 << 40
	streamCold = 0xc01d << 40
	streamOp   = 0x0b5 << 40
)

// workload is one traffic mix. Stream workloads keep `sessions` live
// sessions of pinned life; solve-mix submits offline solves.
type workload struct {
	name     string
	sessions int     // live sessions (stream workloads)
	life     int     // full session life in ticks (stream workloads)
	rate     float64 // open-loop op rate, ops/s
	solve    bool
	durable  bool
	gateway  bool
}

// workloads is the benchmark's workload table. The open-loop rates stay
// at or below 40% of each workload's closed-loop throughput on a 2-CPU
// host, so the open phase measures latency without a growing backlog.
// solve-mix runs lower still: a miss holds its connection for
// milliseconds, and the hits queued behind misses would otherwise come
// near its median, which then jumps when the host slows.
var workloads = []workload{
	{name: "stream-mem", sessions: 64, life: 200, rate: 1500},
	{name: "stream-durable", sessions: 16, life: 800, rate: 800, durable: true},
	{name: "stream-gateway", sessions: 64, life: 200, rate: 1000, gateway: true},
	{name: "solve-mix", rate: 150, solve: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poisson draws a Poisson(lambda) count by Knuth's product method.
func poisson(r *rand.Rand, lambda float64) int {
	limit := math.Exp(-lambda)
	k := 0
	for p := r.Float64(); p > limit; p *= r.Float64() {
		k++
	}
	return k
}

// lifeJobs generates the arrivals of one session life, in release order.
// Jobs released at the same step are ordered by weight, the order
// core.NewInstance gives them, so the dense job IDs the server assigns
// equal the IDs of the batch instance the verifier rebuilds.
func lifeJobs(seed uint64, slot, life, ticks int) []server.JobSpec {
	r := rand.New(rand.NewPCG(seed, uint64(slot)<<32|uint64(life)))
	z := rand.NewZipf(r, zipfS, 1, maxWeight-1)
	var jobs []server.JobSpec
	for t := int64(0); t < int64(ticks)*stepsPerTick; t++ {
		first := len(jobs)
		for k := poisson(r, arrivalRate); k > 0; k-- {
			jobs = append(jobs, server.JobSpec{Release: t, Weight: int64(z.Uint64()) + 1})
		}
		same := jobs[first:]
		sort.Slice(same, func(a, b int) bool { return same[a].Weight < same[b].Weight })
	}
	return jobs
}

type opKind uint8

const (
	opTick opKind = iota
	opRead
	opRetire
)

// slot is one session position of a stream workload: the session living
// in it, that session's pinned life, and its deterministic job stream.
// A slot is driven by exactly one connection.
type slot struct {
	seed      uint64
	idx       int
	full      int // full life in ticks
	life      int // life number, 0 for the first session in the slot
	lifeTicks int // this life's length in ticks
	ticks     int // ticks issued in this life
	ops       int // non-retire ops issued in this life
	jobs      []server.JobSpec
	posted    int // jobs[:posted] have been sent
	id        string
}

// newSlot starts slot idx of n. Its first life is (idx+1)/n of the full
// life, which staggers recycles so session ages are spread evenly once
// every slot has recycled.
func newSlot(seed uint64, idx, n, full int) *slot {
	s := &slot{seed: seed, idx: idx, full: full}
	s.begin(max(1, (idx+1)*full/n))
	return s
}

func (s *slot) begin(ticks int) {
	s.lifeTicks, s.ticks, s.ops, s.posted = ticks, 0, 0, 0
	s.jobs = lifeJobs(s.seed, s.idx, s.life, ticks)
	s.id = fmt.Sprintf("b%03d-%d", s.idx, s.life)
}

// next returns the kind of the slot's next op.
func (s *slot) next() opKind {
	if s.ticks == s.lifeTicks {
		return opRetire
	}
	s.ops++
	if s.ops%readEvery == 0 {
		return opRead
	}
	return opTick
}

// window returns the jobs released during the next tick.
func (s *slot) window() []server.JobSpec {
	end := int64(s.ticks+1) * stepsPerTick
	i := s.posted
	for i < len(s.jobs) && s.jobs[i].Release < end {
		i++
	}
	return s.jobs[s.posted:i]
}

// ticked records a tick that posted n jobs.
func (s *slot) ticked(n int) {
	s.posted += n
	s.ticks++
}

// now is the session clock after every tick issued so far.
func (s *slot) now() int64 { return int64(s.ticks) * stepsPerTick }

// recycle starts the slot's next life at full length.
func (s *slot) recycle() {
	s.life++
	s.begin(s.full)
}

// recycled reports whether every slot has retired its first session.
func recycled(slots []*slot) bool {
	for _, s := range slots {
		if s.life == 0 {
			return false
		}
	}
	return true
}

// newSlots builds a stream workload's slots.
func newSlots(seed uint64, wl workload) []*slot {
	slots := make([]*slot, wl.sessions)
	for i := range slots {
		slots[i] = newSlot(seed, i, wl.sessions, wl.life)
	}
	return slots
}

// dueTimes is the open-loop schedule: Poisson arrival offsets at rate
// ops/s, up to (not including) until.
func dueTimes(seed uint64, rate float64, until time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, streamDue))
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= until {
			return out
		}
		out = append(out, d)
	}
}

// solveInstance generates one offline instance with strictly increasing
// release times, so canonicalization leaves it unchanged.
func solveInstance(seed, stream uint64) []server.JobSpec {
	r := rand.New(rand.NewPCG(seed, stream))
	z := rand.NewZipf(r, zipfS, 1, maxWeight-1)
	jobs := make([]server.JobSpec, solveMinJobs+r.IntN(solveMaxJobs-solveMinJobs+1))
	release := int64(0)
	for i := range jobs {
		release += 1 + int64(poisson(r, 1))
		jobs[i] = server.JobSpec{Release: release, Weight: int64(z.Uint64()) + 1}
	}
	return jobs
}

// solveOp is one solve-mix request.
type solveOp struct {
	// key names the instance: 0..hotSetSize-1 for the hot set, and
	// hotSetSize+k for the cold instance of op k.
	key  int
	jobs []server.JobSpec // as sent: hot instances may be permuted
}

// solveStream generates the solve-mix op stream for one seed.
type solveStream struct {
	seed uint64
	hot  [][]server.JobSpec
}

func newSolveStream(seed uint64) *solveStream {
	s := &solveStream{seed: seed, hot: make([][]server.JobSpec, hotSetSize)}
	for h := range s.hot {
		s.hot[h] = solveInstance(seed, streamHot|uint64(h))
	}
	return s
}

// op returns op k of the stream: a hot instance, half of the time with
// its jobs permuted (the daemon canonicalizes, so it still hits the
// cache), or a fresh cold instance.
func (s *solveStream) op(k int) solveOp {
	r := rand.New(rand.NewPCG(s.seed, streamOp|uint64(k)))
	if r.Float64() >= hotShare {
		return solveOp{key: hotSetSize + k, jobs: solveInstance(s.seed, streamCold|uint64(k))}
	}
	h := r.IntN(hotSetSize)
	jobs := s.hot[h]
	if r.IntN(2) == 0 {
		jobs = append([]server.JobSpec(nil), jobs...)
		r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	}
	return solveOp{key: h, jobs: jobs}
}

// instance returns the unpermuted jobs of an op key.
func (s *solveStream) instance(key int) []server.JobSpec {
	if key < hotSetSize {
		return s.hot[key]
	}
	return solveInstance(s.seed, streamCold|uint64(key-hotSetSize))
}
