package server

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestAgedSessionFootprint measures what an aged session holds at the
// shape of the stream-mem benchmark: 64 alg2 sessions (T = 16, G = 64),
// session i aged (i+1)/64 of a 200-tick life, each tick posting the next
// 16 steps' Poisson(0.25) arrivals and stepping 16. Most of such a
// session's heap is per job and per calibration, so this pins the dense
// job table, the engine's start slice and the packed decision ring. A
// session holds about 23 KiB here; with a 24-byte job table entry, a
// start map and 96-byte ring events it held about 40 KiB.
func TestAgedSessionFootprint(t *testing.T) {
	const (
		sessions = 64
		life     = 200
		steps    = 16
		rate     = 0.25
	)
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	rng := rand.New(rand.NewSource(911))
	poisson := func() int {
		k, limit := 0, math.Exp(-rate)
		for p := rng.Float64(); p > limit; p *= rng.Float64() {
			k++
		}
		return k
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var jobs int
	for i := range sessions {
		info, err := m.Create(CreateSessionRequest{Alg: "alg2", T: 16, G: 64})
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		for tick := range (i + 1) * life / sessions {
			var specs []JobSpec
			for step := int64(tick * steps); step < int64((tick+1)*steps); step++ {
				for range poisson() {
					specs = append(specs, JobSpec{Release: step, Weight: 1 + rng.Int63n(9)})
				}
			}
			if len(specs) > 0 {
				if _, err := s.Arrivals(specs, nil); err != nil {
					t.Fatal(err)
				}
				jobs += len(specs)
			}
			if _, err := s.Step(steps, steps, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	t.Logf("heap per aged alg2 session: %d B (%d jobs per session)", perSession, jobs/sessions)
	if perSession > 30<<10 {
		t.Fatalf("an aged alg2 session holds %d B of heap, want <= 30 KiB", perSession)
	}
}
