package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestEachCallsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			Each(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d n %d: index %d called %d times", procs, n, i, got)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
