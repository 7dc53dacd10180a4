// Package par runs independent, index-addressed work items on a bounded
// pool of goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) once for every i in [0, n) on min(n, GOMAXPROCS)
// goroutines and returns only after every call has returned, so no
// goroutine outlives it. fn must be safe to call concurrently; a caller
// that needs a deterministic outcome writes each result to slot i and
// consumes the slots in index order afterwards.
func Each(n int, fn func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
