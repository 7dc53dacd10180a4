package solve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestCacheResistsOneShotKeys replays solve-mix's request shape against
// the cache alone: 80% of requests go to a 96-key hot set, 20% to keys
// never seen again, at capacity 128, each miss followed by an add. The
// hot set fits, so the hit ratio can approach 0.8; one-shot keys must
// not push it out. A plain LRU reads about 0.68 here.
func TestCacheResistsOneShotKeys(t *testing.T) {
	const hot, capacity, warmup, requests = 96, 128, 2000, 50000
	rng := rand.New(rand.NewSource(1))
	c := newCache(capacity)
	cold, hits := 0, 0
	for i := 0; i < warmup+requests; i++ {
		var key string
		if rng.Intn(5) == 0 {
			cold++
			key = fmt.Sprintf("cold-%d", cold)
		} else {
			key = fmt.Sprintf("hot-%d", rng.Intn(hot))
		}
		if _, ok := c.get(key); ok {
			if i >= warmup {
				hits++
			}
			continue
		}
		c.add(key, outcome{})
	}
	if ratio := float64(hits) / requests; ratio < 0.78 {
		t.Fatalf("hit ratio %.3f, want >= 0.78", ratio)
	}
}

// refCache is the eviction rule spelled out on plain slices: probation,
// main and ghost lists oldest-first, searched linearly.
type refCache struct {
	capacity, small int
	probe, main     []string
	freq            map[string]int
	ghosts          []string
}

func (r *refCache) cached(key string) bool {
	return slices.Contains(r.probe, key) || slices.Contains(r.main, key)
}

func (r *refCache) get(key string) bool {
	if !r.cached(key) {
		return false
	}
	r.freq[key] = min(r.freq[key]+1, 3)
	return true
}

func (r *refCache) add(key string) (string, bool) {
	if r.capacity <= 0 || r.cached(key) {
		return "", false
	}
	r.freq[key] = 0
	if i := slices.Index(r.ghosts, key); i >= 0 {
		r.ghosts = slices.Delete(r.ghosts, i, i+1)
		r.main = append(r.main, key)
	} else {
		r.probe = append(r.probe, key)
	}
	if len(r.probe)+len(r.main) <= r.capacity {
		return "", false
	}
	for {
		if len(r.probe) >= r.small || len(r.main) == 0 {
			k := r.probe[0]
			r.probe = r.probe[1:]
			if r.freq[k] > 0 {
				r.freq[k] = 0
				r.main = append(r.main, k)
				continue
			}
			r.ghosts = append(r.ghosts, k)
			if len(r.ghosts) > r.capacity-r.small {
				r.ghosts = r.ghosts[1:]
			}
			return k, true
		}
		k := r.main[0]
		r.main = r.main[1:]
		if r.freq[k] > 0 {
			r.freq[k]--
			r.main = append(r.main, k)
			continue
		}
		return k, true
	}
}

// TestCacheMatchesReferenceModel drives the cache and refCache with the
// same random gets and adds over a small key space, so keys cycle
// through probation, main and the ghost list, and requires the same hit
// and the same evicted key on every operation.
func TestCacheMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, capacity := range []int{-1, 0, 1, 2, 3, 10, 25} {
		c := newCache(capacity)
		ref := &refCache{capacity: capacity, small: max(capacity/10, 1), freq: map[string]int{}}
		keys := 3*max(capacity, 1) + 2
		for op := 0; op < 20000; op++ {
			key := fmt.Sprint(rng.Intn(keys))
			if rng.Intn(2) == 0 {
				_, got := c.get(key)
				if want := ref.get(key); got != want {
					t.Fatalf("cap %d op %d: get(%s) hit %v, want %v", capacity, op, key, got, want)
				}
				continue
			}
			gotKey, got := c.add(key, outcome{})
			wantKey, want := ref.add(key)
			if got != want || gotKey != wantKey {
				t.Fatalf("cap %d op %d: add(%s) evicted %q/%v, want %q/%v", capacity, op, key, gotKey, got, wantKey, want)
			}
			if c.len() > max(capacity, 0) || c.ghostQ.len() > 2*max(capacity, 0)+17 {
				t.Fatalf("cap %d op %d: holds %d entries and %d ghost entries", capacity, op, c.len(), c.ghostQ.len())
			}
		}
	}
}
