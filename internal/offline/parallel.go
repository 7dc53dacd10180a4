package offline

// The DP's tables are filled bottom-up in level-synchronous waves that
// fan out across the solver's workers:
//
//   - Proposition 2 layer: a state (u, v, mu) depends only on states of
//     the same interval with strictly higher mu, and on states of
//     strictly shorter intervals. Processing intervals by increasing
//     length therefore makes every interval of one length independent of
//     the others, and within an interval the mu chain resolves by one
//     descending pass (solveInterval).
//   - Proposition 1 layer: F(k, v) depends only on rows with smaller k,
//     so the budget levels run in sequence with each level's v states
//     fanned out across workers.
//
// Every state is written by exactly one worker and read only after its
// wave has finished, so the worker count changes the speed, never the
// tables (TestParallelWorkerCountsAgree and TestDPGolden, run under
// -race in CI). With one worker the waves run inline on the caller's
// goroutine.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelWorkers clamps a worker count: <= 0 means GOMAXPROCS.
func parallelWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// fanOut runs fn(i, scratch) for i = 1..count across the solver's
// workers and waits for the wave to finish. A panic in a worker (an
// overflow in the exact arithmetic) is raised again on the calling
// goroutine once the wave ends, where the caller can recover it, as it
// could on one worker.
func (s *solver) fanOut(count int, fn func(i int, sc *scratch)) {
	workers := min(s.workers, count)
	if workers <= 1 {
		sc := newScratch(s.n)
		for i := 1; i <= count; i++ {
			fn(i, sc)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var fault any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { fault = r })
				}
			}()
			sc := newScratch(s.n)
			for {
				i := int(next.Add(1))
				if i > count {
					return
				}
				fn(i, sc)
			}
		}()
	}
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}

// buildProp2 fills the whole Proposition 2 layer, one interval-length
// level at a time; intervals within a level are independent.
func (s *solver) buildProp2() {
	n := s.n
	for length := 1; length <= n; length++ {
		s.fanOut(n-length+1, func(u int, sc *scratch) {
			s.solveInterval(u, u+length-1, sc)
		})
	}
}

// buildTop fills the Proposition 1 layer for budgets 0..maxK; each
// budget level fans its v states out across workers.
func (s *solver) buildTop(maxK int) {
	n := s.n
	s.maxK = maxK
	s.fTop = make([]int64, (maxK+1)*(n+1))
	s.uTop = make([]int32, (maxK+1)*(n+1))
	for v := 1; v <= n; v++ {
		s.fTop[v] = inf // k == 0 cannot schedule anything
	}
	for k := 1; k <= maxK; k++ {
		row := k * (n + 1)
		s.fanOut(n, func(v int, _ *scratch) {
			s.fTop[row+v], s.uTop[row+v] = s.topState(k, v)
		})
	}
}
