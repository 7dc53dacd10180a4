package solve

// resultCache is the pool's result cache, evicting by S3-FIFO (Yang et
// al., "FIFO queues are all you need for cache eviction", SOSP'23): a
// new key enters a small probation queue holding about a tenth of the
// capacity; one read while there moves it to the main queue on its way
// out, and an unread key leaves the cache as a ghost, a remembered key
// without a value. A ghost added again goes straight to main. Main is a
// FIFO that reinserts an entry read since its last pass, so a hot set
// stays cached while one-shot keys pass through probation without
// pushing it out, which a plain LRU does not resist.
//
// Not goroutine-safe: the pool serializes access under its own mutex. A
// capacity <= 0 disables caching entirely (every get misses, every add
// is dropped).
type resultCache struct {
	capacity int
	small    int // probation share of the capacity
	items    map[string]*cacheEntry
	probe    fifo[*cacheEntry]
	main     fifo[*cacheEntry]

	// ghosts maps each remembered key to the stamp of its newest entry
	// in ghostQ; older entries of a key in ghostQ are stale.
	ghosts map[string]uint64
	ghostQ fifo[ghostEntry]
	stamp  uint64
}

type cacheEntry struct {
	key  string
	val  outcome
	freq uint8 // reads since the entry's last pass, capped at maxFreq
}

type ghostEntry struct {
	key   string
	stamp uint64
}

// maxFreq caps an entry's read count: a main-queue entry survives at
// most this many passes without a read.
const maxFreq = 3

func newCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		small:    max(capacity/10, 1),
		items:    make(map[string]*cacheEntry),
		ghosts:   make(map[string]uint64),
	}
}

func (c *resultCache) get(key string) (outcome, bool) {
	e, ok := c.items[key]
	if !ok {
		return outcome{}, false
	}
	e.freq = min(e.freq+1, maxFreq)
	return e.val, true
}

// add inserts (or refreshes) key and reports the evicted key, if the
// insert pushed the cache over capacity.
func (c *resultCache) add(key string, val outcome) (evicted string, didEvict bool) {
	if c.capacity <= 0 {
		return "", false
	}
	if e, ok := c.items[key]; ok {
		e.val = val
		return "", false
	}
	e := &cacheEntry{key: key, val: val}
	c.items[key] = e
	if _, ok := c.ghosts[key]; ok {
		delete(c.ghosts, key)
		c.main.push(e)
	} else {
		c.probe.push(e)
	}
	if len(c.items) <= c.capacity {
		return "", false
	}
	return c.evict(), true
}

// evict removes one entry: from probation while it holds its share (or
// main is empty), otherwise from main. Entries read since they were
// queued move on instead: probation to main, main to main's tail.
func (c *resultCache) evict() string {
	for {
		if c.probe.len() >= c.small || c.main.len() == 0 {
			e := c.probe.pop()
			if e.freq > 0 {
				e.freq = 0
				c.main.push(e)
				continue
			}
			delete(c.items, e.key)
			c.remember(e.key)
			return e.key
		}
		e := c.main.pop()
		if e.freq > 0 {
			e.freq--
			c.main.push(e)
			continue
		}
		delete(c.items, e.key)
		return e.key
	}
}

// remember makes key a ghost, forgetting the oldest ghosts beyond the
// main queue's share of the capacity.
func (c *resultCache) remember(key string) {
	limit := c.capacity - c.small
	live := func(g ghostEntry) bool { return c.ghosts[g.key] == g.stamp }
	c.stamp++
	c.ghosts[key] = c.stamp
	c.ghostQ.push(ghostEntry{key, c.stamp})
	for len(c.ghosts) > limit {
		if old := c.ghostQ.pop(); live(old) {
			delete(c.ghosts, old.key)
		}
	}
	// A ghost added again leaves a stale entry in ghostQ; drop those
	// before they outnumber the live ones.
	if c.ghostQ.len() > 2*limit+16 {
		c.ghostQ.filter(live)
	}
}

func (c *resultCache) len() int { return len(c.items) }

// fifo is a slice-backed queue: push at the tail, pop from the head.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	// Reclaim the popped prefix once it is half the slice, so the
	// backing array stays within twice the queue length.
	if q.head >= 16 && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// filter keeps only the items keep accepts, in order.
func (q *fifo[T]) filter(keep func(T) bool) {
	n := 0
	for _, v := range q.items[q.head:] {
		if keep(v) {
			q.items[n] = v
			n++
		}
	}
	clear(q.items[n:])
	q.items = q.items[:n]
	q.head = 0
}
