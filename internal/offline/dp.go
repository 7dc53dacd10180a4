// Package offline implements Section 4 of the paper: the exact dynamic
// program (Propositions 1 and 2) that minimizes total weighted flow time on
// one machine under a budget of K calibrations, together with brute-force
// optima used to cross-validate it and utilities that convert between the
// budget model and the online cost model (budget sweep, G-cost optimum).
//
// The DP works over jobs sorted by strictly increasing release time (the
// paper's normal form; see Instance.Canonicalize) and in weighted
// completion-time space; flow is recovered by subtracting the instance
// constant sum_j w_j r_j.
//
// Structure recap (Section 4.1): some optimal schedule decomposes into
// groups of consecutive jobs {u..v}, each served by exactly
// ceil((v-u+1)/T) intervals of which all but possibly the last are full,
// the last interval anchored to end right after job v runs at its release
// time (job v is critical, Lemma 4.2 / Definition 4.4). Proposition 1
// searches the group decomposition; Proposition 2 computes the cost of one
// group by repeatedly peeling the lowest-rank (lightest) job e, which is
// always scheduled either at its release time, or as the last job of the
// busy prefix [b, b+s) of the group's final interval, or — if the group
// splits at a multiple-of-T prefix — inside an earlier subgroup.
//
// There is one solver: it fills dense Proposition 2 and Proposition 1
// tables bottom-up (parallel.go runs the fill in waves across a worker
// count the caller picks) and reconstructs schedules from their choice
// entries. The plain entry points (OptimalFlow, BudgetSweep,
// OptimalTotalCost) are one-worker calls of the *Parallel forms, which
// return byte-identical results at any worker count. Instances beyond
// MaxDPJobs are rejected before any table is allocated.
package offline

import (
	"fmt"
	"math"
	"sort"

	"calibsched/internal/core"
	"calibsched/internal/simul"
	"calibsched/internal/trace"
)

// Unschedulable marks budget entries for which no feasible schedule exists
// (fewer than ceil(n/T) calibrations).
const Unschedulable = int64(-1)

const inf = int64(math.MaxInt64) / 4

// MaxDPJobs is the largest job count the DP accepts; it bounds the
// solver's memory. The Proposition 2 table holds
// sum_{len=1..n} (n-len+1)(len+1) ≈ n^3/6 states at 25 bytes each (value,
// choice kind, peeled job, slot, split), and the rest of the solver is
// O(n^2): at n = 512 that is 22.6M states, about 546 MiB in all (about
// 70 MiB at n = 256). newSolver rejects larger instances before
// allocating anything.
const MaxDPJobs = 512

// DPResult is the outcome of the exact offline solver.
type DPResult struct {
	// Flow is the minimum total weighted flow with the given budget.
	Flow int64
	// Schedule achieves Flow; its calendar is a minimal greedy cover of
	// the chosen slots and uses at most the budget.
	Schedule *core.Schedule
}

// choiceKind tags how a Proposition 2 state resolved.
type choiceKind uint8

const (
	choiceEmpty choiceKind = iota
	choiceAtRelease
	choiceBusyPrefix
	choiceSplit
)

type choice struct {
	kind  choiceKind
	e     int   // job index (1-based) for AtRelease/BusyPrefix
	slot  int64 // start slot for e
	split int   // split job j for Split
}

type solver struct {
	n         int
	T         int64
	workers   int
	rel       []int64 // 1-based
	w         []int64 // 1-based
	rank      []int   // 1-based job index -> rank in 1..n
	pos       []int   // rank -> 1-based job index (inverse of rank)
	relWeight int64   // sum_j w_j r_j: completion time minus flow

	// pre[mu][j] = #{i in 1..j : rank_i > mu}; cnt(u,j,mu) is a prefix
	// difference.
	pre [][]int32

	// Proposition 2 layer, flattened: interval (u, v) owns the slots
	// [base[u][v], base[u][v]+len], indexed by the canonical state
	// c = |{ranks in [u,v]} <= mu| (c == len is the empty state).
	// f(u,v,mu) depends on mu only through the job set J(u,v,mu), so an
	// interval needs len+1 entries, not n.
	base    [][]int64
	val     []int64
	chKind  []uint8
	chE     []int32
	chSlot  []int64
	chSplit []int32

	// Proposition 1 layer: row-major (maxK+1) x (n+1), with maxK capped
	// at n (more calibrations than jobs never help, so rows beyond n
	// would repeat row n).
	maxK int
	fTop []int64
	uTop []int32

	// Decision tracing (nil sink = off): schedule reconstruction emits one
	// trace.DecisionEvent per calendar entry of the greedy cover. traceG
	// is the online cost G for accrued-cost accounting (0 when the caller
	// works in the pure budget model).
	sink     trace.Sink
	traceG   int64
	traceSeq int64
}

// newSolver validates in, precomputes ranks and prefix counts, and
// allocates the Proposition 2 table. workers <= 0 means GOMAXPROCS.
func newSolver(in *core.Instance, workers int) (*solver, error) {
	if in.P != 1 {
		return nil, fmt.Errorf("offline: DP requires P = 1, got %d", in.P)
	}
	n := in.N()
	if n > MaxDPJobs {
		return nil, fmt.Errorf("offline: %d jobs exceed the DP limit %d (the dense tables grow as n^3/6 states of 25 bytes)", n, MaxDPJobs)
	}
	for i := 1; i < n; i++ {
		if in.Jobs[i].Release == in.Jobs[i-1].Release {
			return nil, fmt.Errorf("offline: DP requires distinct release times (canonicalize first); jobs %d and %d share release %d", i-1, i, in.Jobs[i].Release)
		}
	}
	s := &solver{
		n:       n,
		T:       in.T,
		workers: parallelWorkers(workers),
		rel:     make([]int64, n+1),
		w:       make([]int64, n+1),
		rank:    make([]int, n+1),
		pos:     make([]int, n+1),
	}
	ranks := in.Ranks()
	for i, j := range in.Jobs {
		s.rel[i+1] = j.Release
		s.w[i+1] = j.Weight
		s.rank[i+1] = ranks[j.ID]
		s.pos[ranks[j.ID]] = i + 1
		s.relWeight = core.MustAdd(s.relWeight, core.MustMul(j.Weight, j.Release))
	}
	s.pre = make([][]int32, n+1)
	for mu := 0; mu <= n; mu++ {
		row := make([]int32, n+1)
		for j := 1; j <= n; j++ {
			row[j] = row[j-1]
			if s.rank[j] > mu {
				row[j]++
			}
		}
		s.pre[mu] = row
	}
	s.base = make([][]int64, n+1)
	var total int64
	for u := 1; u <= n; u++ {
		s.base[u] = make([]int64, n+1)
		for v := u; v <= n; v++ {
			s.base[u][v] = total
			total += int64(v-u) + 2 // states c = 0..len
		}
	}
	s.val = make([]int64, total)
	s.chKind = make([]uint8, total)
	s.chE = make([]int32, total)
	s.chSlot = make([]int64, total)
	s.chSplit = make([]int32, total)
	return s, nil
}

// solveTables runs the whole DP for budgets 0..maxK on workers
// goroutines: newSolver, then both table layers.
func solveTables(in *core.Instance, maxK, workers int) (*solver, error) {
	s, err := newSolver(in, workers)
	if err != nil {
		return nil, err
	}
	s.buildProp2()
	s.buildTop(min(maxK, s.n))
	return s, nil
}

// cnt returns |J(u,j,mu)| = #{i in u..j : rank_i > mu}; zero when j < u.
func (s *solver) cnt(u, j, mu int) int64 {
	if j < u {
		return 0
	}
	return int64(s.pre[mu][j] - s.pre[mu][u-1])
}

// prefixS computes Definition 4.5's s for the state (u,v,mu): the smallest
// h >= 0 with h == |{j in J : r_j < b+h}| (mod T), where b = rel[v]+1-T.
// Lemma 4.6: the machine is busy throughout [b, b+s) and every job is
// scheduled at its release during [b+s, b+T).
//
// Let c(h) = |{j in J(u,v,mu) : r_j < b+h}| and d(h) = h - c(h). Release
// times are distinct, so d is nondecreasing with unit steps, and the
// fixed-point condition is d(h) ≡ 0 (mod T). Starting from d(0) = -c(0),
// d passes through every integer it crosses, so the first fixed point is
// the first h where d reaches the smallest multiple of T that is >= -c(0)
// — found by binary search over h, with each c(h) a binary search over
// the release-sorted index range plus a rank-prefix difference. O(log T
// * log n) per call and allocation-free; the tests cross-check it
// against a direct O(T + n) scan.
func (s *solver) prefixS(u, v, mu int) int64 {
	b := s.rel[v] + 1 - s.T
	count := func(h int64) int64 {
		// Largest i in [u, v] with rel[i] < b+h (releases ascend with i).
		lo, hi, idx := u, v, u-1
		for lo <= hi {
			mid := int(uint(lo+hi) >> 1)
			if s.rel[mid] < b+h {
				idx = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		return s.cnt(u, idx, mu)
	}
	c0 := count(0)
	target := -core.MustMul(c0/s.T, s.T) // smallest multiple of T >= -c0
	lo, hi, ans := int64(0), s.T, int64(-1)
	for lo <= hi {
		mid := (lo + hi) / 2
		if mid-count(mid) >= target {
			ans = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if ans < 0 {
		// A fixed point always exists in [0, T]: d(T) >= target because d
		// moves by at most one per step while T covers a full residue class.
		panic("offline: no busy-prefix fixed point; unreachable")
	}
	return ans
}

// getF reads f(a, b, mu) from the Proposition 2 table: the canonical
// index is c = len - |J(a,b,mu)|, and the empty state (c == len) holds 0.
func (s *solver) getF(a, b, mu int) int64 {
	c := int64(b-a+1) - s.cnt(a, b, mu)
	return s.val[s.base[a][b]+c]
}

// scratch is per-worker reusable state for the table fill, which never
// re-enters a state, so the buffers are safe to reuse across states.
type scratch struct {
	psi   []int
	ranks []int
}

func newScratch(n int) *scratch {
	return &scratch{psi: make([]int, 0, n), ranks: make([]int, 0, n)}
}

// solveInterval fills every state of interval (u, v), descending c so
// that the same-interval dependencies (strictly higher mu) are ready.
func (s *solver) solveInterval(u, v int, sc *scratch) {
	length := v - u + 1
	off := s.base[u][v]
	ranks := sc.ranks[:0]
	for i := u; i <= v; i++ {
		ranks = append(ranks, s.rank[i])
	}
	sort.Ints(ranks)
	sc.ranks = ranks
	s.val[off+int64(length)] = 0
	s.chKind[off+int64(length)] = uint8(choiceEmpty)
	for c := length - 1; c >= 0; c-- {
		mu := 0
		if c > 0 {
			mu = ranks[c-1]
		}
		e := s.pos[ranks[c]] // the smallest rank above mu lives at ranks[c]
		best, ch := s.solveState(u, v, mu, e, sc)
		s.val[off+int64(c)] = best
		s.chKind[off+int64(c)] = uint8(ch.kind)
		s.chE[off+int64(c)] = int32(ch.e)
		s.chSlot[off+int64(c)] = ch.slot
		s.chSplit[off+int64(c)] = int32(ch.split)
	}
}

// solveState computes Proposition 2 for the nonempty state (u, v, mu):
// the minimum total weighted completion time of J(u,v,mu) scheduled in
// exactly ceil(|J|/T) intervals, all full except possibly the last, which
// occupies [rel[v]+1-T, rel[v]+1). e is the job of smallest rank above
// mu. Candidates are tried in a fixed order with strict-< comparisons, so
// ties resolve the same way at every worker count.
func (s *solver) solveState(u, v, mu, e int, sc *scratch) (int64, choice) {
	b := s.rel[v] + 1 - s.T

	// Psi: jobs j in J(u, v-1, mu) whose prefix count |J(u,j,mu)| is a
	// positive multiple of T. jLast is the one with the latest release.
	psi := sc.psi[:0]
	for j := u; j <= v-1; j++ {
		if s.rank[j] > mu && s.cnt(u, j, mu)%s.T == 0 {
			psi = append(psi, j)
		}
	}
	sc.psi = psi
	if len(psi) > 0 {
		jLast := psi[len(psi)-1]
		if b <= s.rel[jLast] {
			// The full prefix intervals cannot fit before the final
			// interval: infeasible as a single group.
			return inf, choice{}
		}
	}

	sPrefix := s.prefixS(u, v, mu)
	best := inf
	var bestCh choice

	if s.rel[e] >= b+sPrefix {
		// Job e is released in the everything-at-release suffix of the
		// final interval: schedule it at its release time.
		if rest := s.getF(u, v, s.rank[e]); rest < inf {
			if c := core.MustAdd(rest, core.MustMul(s.w[e], s.rel[e]+1)); c < best {
				best = c
				bestCh = choice{kind: choiceAtRelease, e: e, slot: s.rel[e]}
			}
		}
	} else if sPrefix > 0 {
		// Job e is delayed: as the lightest job it takes the last slot of
		// the busy prefix, completing at b+s.
		if rest := s.getF(u, v, s.rank[e]); rest < inf {
			if c := core.MustAdd(rest, core.MustMul(s.w[e], b+sPrefix)); c < best {
				best = c
				bestCh = choice{kind: choiceBusyPrefix, e: e, slot: b + sPrefix - 1}
			}
		}
	}

	for _, j := range psi {
		if s.rel[j] < s.rel[e] {
			continue // e must lie in the left part for a split at j
		}
		left := s.getF(u, j, mu)
		if left >= inf {
			continue
		}
		right := s.getF(j+1, v, mu)
		if right >= inf {
			continue
		}
		if c := left + right; c < best {
			best = c
			bestCh = choice{kind: choiceSplit, split: j}
		}
	}
	return best, bestCh
}

// topF reads F(k, v) from the Proposition 1 table: the minimum total
// weighted completion time of jobs 1..v using at most k calibrations.
func (s *solver) topF(k, v int) int64 {
	if v == 0 {
		return 0
	}
	if k <= 0 {
		return inf
	}
	return s.fTop[k*(s.n+1)+v]
}

// topState computes Proposition 1 for (k, v) from rows with smaller k:
// the last group {u..v} needs ceil((v-u+1)/T) calibrations.
func (s *solver) topState(k, v int) (int64, int32) {
	if core.MustMul(int64(k), s.T) < int64(v) {
		return inf, 0
	}
	best := inf
	bestU := 0
	for u := 1; u <= v; u++ {
		need := int(simul.CeilDiv(int64(v-u+1), s.T))
		if need > k {
			continue
		}
		prev := s.topF(k-need, u-1)
		if prev >= inf {
			continue
		}
		g := s.getF(u, v, 0)
		if g >= inf {
			continue
		}
		if c := prev + g; c < best {
			best = c
			bestU = u
		}
	}
	return best, int32(bestU)
}

// flowAt returns the optimal total weighted flow with at most k
// calibrations, or Unschedulable. k must not exceed the budget the tables
// were built for; a k past the built rows reads row n, where solveTables
// stopped because extra budget never helps.
func (s *solver) flowAt(k int) int64 {
	val := s.topF(min(k, s.maxK), s.n)
	if val >= inf {
		return Unschedulable
	}
	return val - s.relWeight
}

// rebuild reconstructs a schedule achieving flowAt(k); nil if infeasible.
func (s *solver) rebuild(k int) *core.Schedule {
	if s.flowAt(k) == Unschedulable {
		return nil
	}
	starts := make([]int64, s.n+1)
	v := s.n
	kk := min(k, s.maxK)
	for v > 0 {
		u := int(s.uTop[kk*(s.n+1)+v])
		if u == 0 {
			panic("offline: broken F reconstruction chain")
		}
		s.emitF(u, v, 0, starts)
		kk -= int(simul.CeilDiv(int64(v-u+1), s.T))
		v = u - 1
	}
	return s.scheduleFromStarts(starts)
}

// emitF writes the slots chosen for state (u,v,mu) into starts[jobIndex].
func (s *solver) emitF(u, v, mu int, starts []int64) {
	for s.cnt(u, v, mu) > 0 {
		idx := s.base[u][v] + int64(v-u+1) - s.cnt(u, v, mu)
		switch choiceKind(s.chKind[idx]) {
		case choiceAtRelease, choiceBusyPrefix:
			e := int(s.chE[idx])
			starts[e] = s.chSlot[idx]
			mu = s.rank[e]
		case choiceSplit:
			j := int(s.chSplit[idx])
			s.emitF(u, j, mu, starts)
			u = j + 1
		default:
			panic("offline: empty choice for nonempty state")
		}
	}
}

// scheduleFromStarts builds a schedule from 1-based per-job start slots,
// deriving a minimal calendar by greedy interval covering. With a sink set
// it also emits one decision event per calendar entry: the DP fixed the
// slots, so each interval opens exactly where the Proposition 1/2 optimum
// forces an uncovered slot, and the event snapshots the jobs that interval
// serves (queue fields) and their realized weighted flow (prospective
// flow field).
func (s *solver) scheduleFromStarts(starts []int64) *core.Schedule {
	sched := core.NewSchedule(s.n)
	order := make([]int, s.n)
	for i := range order {
		order[i] = i + 1
	}
	sort.Slice(order, func(a, b int) bool { return starts[order[a]] < starts[order[b]] })
	coveredUntil := int64(math.MinInt64)
	var calStart int64
	groupLen := 0
	var groupWeight, groupFlow int64
	flush := func() {
		if s.sink == nil || groupLen == 0 {
			return
		}
		s.traceSeq++
		s.sink.Emit(trace.DecisionEvent{
			Seq:             s.traceSeq,
			Time:            calStart,
			Machine:         0,
			Alg:             "offline.dp",
			Rule:            "offline.dp.cover-open",
			QueueLen:        groupLen,
			QueueWeight:     groupWeight,
			ProspectiveFlow: groupFlow,
			Calibrations:    sched.NumCalibrations(),
			AccruedCost:     core.MustMul(s.traceG, int64(sched.NumCalibrations())),
		})
	}
	for _, j := range order {
		t := starts[j]
		if t >= coveredUntil {
			flush()
			sched.Calibrate(0, t)
			coveredUntil = t + s.T
			calStart = t
			groupLen, groupWeight, groupFlow = 0, 0, 0
		}
		// Job IDs equal index-1: solver indices follow instance order.
		sched.Assign(j-1, 0, t)
		if s.sink != nil {
			groupLen++
			groupWeight = core.MustAdd(groupWeight, s.w[j])
			groupFlow = core.MustAdd(groupFlow, core.MustMul(s.w[j], t+1-s.rel[j]))
		}
	}
	flush()
	return sched
}

// OptimalFlow solves the offline problem exactly: the minimum total
// weighted flow on one machine using at most k calibrations (Theorem 4.7).
// The instance must have distinct release times. It returns an error if k
// calibrations cannot fit all jobs (k*T < n). It is OptimalFlowParallel
// on one worker.
func OptimalFlow(in *core.Instance, k int) (*DPResult, error) {
	return OptimalFlowParallel(in, k, 1)
}

// OptimalFlowParallel is OptimalFlow with the table fill spread over
// workers goroutines (<= 0 means GOMAXPROCS); the result is identical at
// every worker count.
func OptimalFlowParallel(in *core.Instance, k, workers int) (*DPResult, error) {
	if k < 0 {
		return nil, fmt.Errorf("offline: negative budget %d", k)
	}
	if in.N() == 0 {
		return &DPResult{Flow: 0, Schedule: core.NewSchedule(0)}, nil
	}
	s, err := solveTables(in, k, workers)
	if err != nil {
		return nil, err
	}
	flow := s.flowAt(k)
	if flow == Unschedulable {
		return nil, fmt.Errorf("offline: %d calibrations of length %d cannot schedule %d jobs", k, in.T, in.N())
	}
	return &DPResult{Flow: flow, Schedule: s.rebuild(k)}, nil
}

// BudgetSweep returns flows[k] for k = 0..maxK: the optimal total weighted
// flow using at most k calibrations, with Unschedulable where no feasible
// schedule exists. One DP run serves the whole sweep. It is
// BudgetSweepParallel on one worker.
func BudgetSweep(in *core.Instance, maxK int) ([]int64, error) {
	return BudgetSweepParallel(in, maxK, 1)
}

// BudgetSweepParallel is BudgetSweep with the table fill spread over
// workers goroutines (<= 0 means GOMAXPROCS); the flows are identical at
// every worker count.
func BudgetSweepParallel(in *core.Instance, maxK, workers int) ([]int64, error) {
	if maxK < 0 {
		return nil, fmt.Errorf("offline: negative budget %d", maxK)
	}
	if in.N() == 0 {
		return make([]int64, maxK+1), nil
	}
	s, err := solveTables(in, maxK, workers)
	if err != nil {
		return nil, err
	}
	flows := make([]int64, maxK+1)
	for k := range flows {
		flows[k] = s.flowAt(k)
	}
	return flows, nil
}

// OptimalTotalCost converts the budget model to the online objective: it
// returns min over k of G*k + OptimalFlow(k), the offline optimum of the
// Section 3 cost, plus the minimizing budget and a schedule achieving it.
// (The paper observes this reduction — "we can use a binary search to find
// the optimal calibration budget"; a full sweep is exact and just as cheap
// here because one DP run yields every budget.) It is
// OptimalTotalCostParallel on one worker.
func OptimalTotalCost(in *core.Instance, g int64) (total int64, bestK int, sched *core.Schedule, err error) {
	return optimalTotalCost(in, g, 1, nil)
}

// OptimalTotalCostParallel is OptimalTotalCost with the table fill spread
// over workers goroutines (<= 0 means GOMAXPROCS); total, budget and
// schedule are identical at every worker count.
func OptimalTotalCostParallel(in *core.Instance, g int64, workers int) (total int64, bestK int, sched *core.Schedule, err error) {
	return optimalTotalCost(in, g, workers, nil)
}

// OptimalTotalCostTraced is OptimalTotalCost with decision tracing: the
// schedule reconstruction emits one trace.DecisionEvent per calendar entry
// (rule "offline.dp.cover-open"), so the offline optimum explains its
// calibrations the same way the online algorithms do. A nil sink degrades
// to the untraced call.
func OptimalTotalCostTraced(in *core.Instance, g int64, sink trace.Sink) (total int64, bestK int, sched *core.Schedule, err error) {
	return optimalTotalCost(in, g, 1, sink)
}

func optimalTotalCost(in *core.Instance, g int64, workers int, sink trace.Sink) (total int64, bestK int, sched *core.Schedule, err error) {
	if g < 0 {
		return 0, 0, nil, fmt.Errorf("offline: negative G %d", g)
	}
	if in.N() == 0 {
		return 0, 0, core.NewSchedule(0), nil
	}
	maxK := in.N() // more calibrations than jobs never help
	s, err := solveTables(in, maxK, workers)
	if err != nil {
		return 0, 0, nil, err
	}
	s.sink = sink
	s.traceG = g
	best := inf
	bestK = -1
	for k := 0; k <= maxK; k++ {
		f := s.flowAt(k)
		if f == Unschedulable {
			continue
		}
		if c := core.MustAdd(core.MustMul(g, int64(k)), f); c < best {
			best = c
			bestK = k
		}
	}
	if bestK < 0 {
		return 0, 0, nil, fmt.Errorf("offline: no feasible schedule (empty budget range)")
	}
	return best, bestK, s.rebuild(bestK), nil
}
