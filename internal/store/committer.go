package store

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cross-session group commit (DESIGN.md §9): a single committer
// goroutine collects pending appends from every session worker, writes
// each record to its session WAL unsynced, appends a copy of every
// record in the group to one store-wide journal file, and issues a
// single fsync — on the journal — for the whole group. `-fsync always`
// keeps its guarantee (an acknowledged command survives kill -9 and
// machine crash: it is durable in the journal even when the session
// WAL's tail is still in the page cache) while the fsync cost is shared
// across however many commands were in flight.
//
// Why a shared journal rather than one fsync pass over the dirty
// session WALs: fsyncs of distinct files do not amortize. Measured on
// this class of filesystem, eight concurrent fsyncs of eight files cost
// ~7x one fsync, while one fsync covering eight writes to a single file
// costs ~1.6x — the journal turns N fsyncs into one, a per-file pass
// only overlaps them. Recovery folds the journal's tail back into the
// session WALs (see Recover in recover.go) and hands those WALs to the
// committer's dirty set, so the journal is an amortization detail, never
// the source of truth past the next rotation.
//
// The batching window is opportunistic, not timed: the committer starts
// a group the moment one request is available and folds in everything
// that queued while the previous group was being written and synced.
// Under a single in-flight command this degrades to per-record fsync
// cost (plus one channel round trip); under N concurrent sessions each
// group carries ~N records and the per-command wait amortizes toward
// fsync/N.
//
// The journal is bounded: once it crosses rotateJournalBytes, the
// committer fsyncs every session WAL with journal-covered records and
// truncates the journal — an fsync-per-file pass whose cost is
// amortized over the thousands of records a rotation window holds.

// maxGroup bounds the records folded into one group so a flood of
// waiters cannot defer the group's fsync indefinitely.
const maxGroup = 512

// rotateJournalBytes triggers journal rotation: session WALs are
// fsynced and the journal truncated once it grows past this.
const rotateJournalBytes = 1 << 20

// journalName is the group-commit journal file, directly under the
// store root (session state lives in subdirectories; SessionIDs lists
// only directories, so the journal never masquerades as a session).
const journalName = "commit.log"

// ErrCommitterStopped rejects appends submitted after Store.Close has
// stopped the committer; sessions must settle before the store closes.
var ErrCommitterStopped = errors.New("store: group committer stopped")

// commitReq is one record waiting to become durable: the framed bytes,
// the log they extend and its session ID, and the channel its owner
// blocks on. The buffer is owned by the submitting worker, which is
// blocked until done is signalled, so the committer may read it without
// copying but must not retain it past the release. A tombstone has a
// session ID but no log and no bytes.
type commitReq struct {
	log  *Log
	sid  string
	buf  []byte
	n    int
	err  error
	done chan struct{}
}

// groupObserver receives one callback per committed group (record count
// and distinct session logs), on the committer goroutine. The server
// wires it to expvar counters.
type groupObserver func(records, logs int)

// journal is the committer-owned group journal state. Confined to the
// committer goroutine after construction.
type journal struct {
	f      *os.File
	path   string
	seq    uint64
	size   int64
	broken error
	buf    []byte
	// rotateAt is the size past which the journal rotates
	// (rotateJournalBytes; tests lower it to force rotations).
	rotateAt int64
	// dirty holds session logs with journal-covered records that have
	// not been fsynced through their own file yet; rotation drains it.
	dirty map[*Log]struct{}
}

// Committer is the cross-session group-commit engine. One per Store
// (FsyncAlways with group commit enabled); every Log the store opens
// routes its appends through it.
type Committer struct {
	j       *journal
	reqs    chan *commitReq
	adopted chan []*Log
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once

	groups  atomic.Uint64
	records atomic.Uint64
	obs     atomic.Pointer[groupObserver]
}

// newCommitter opens the store's group journal and starts the committer
// goroutine. Its loop selects on stop, so Store.Close can always
// terminate it.
func newCommitter(root string) (*Committer, error) {
	path := root + string(os.PathSeparator) + journalName
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening group journal: %w", err)
	}
	size := int64(0)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	c := &Committer{
		j: &journal{f: f, path: path, size: size, rotateAt: rotateJournalBytes,
			dirty: make(map[*Log]struct{})},
		reqs:    make(chan *commitReq, maxGroup),
		adopted: make(chan []*Log),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.run()
	return c, nil
}

// Stop terminates the committer, waits for its goroutine to exit, and
// closes the journal. Requests still queued are failed with
// ErrCommitterStopped, never left hanging. Idempotent.
func (c *Committer) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// SetObserver installs fn, invoked once per committed group on the
// committer goroutine. Install before traffic; nil clears.
func (c *Committer) SetObserver(fn func(records, logs int)) {
	if fn == nil {
		c.obs.Store(nil)
		return
	}
	obs := groupObserver(fn)
	c.obs.Store(&obs)
}

// Groups returns the number of groups committed so far.
func (c *Committer) Groups() uint64 { return c.groups.Load() }

// Records returns the number of records committed through those groups.
func (c *Committer) Records() uint64 { return c.records.Load() }

// commit submits one framed record and blocks until its group is
// durable (or failed). Called by Log.append on the owning session
// worker; at most one request per log is ever in flight, because that
// worker is blocked right here until release.
func (c *Committer) commit(l *Log, buf []byte) (int, error) {
	return c.submit(&commitReq{log: l, sid: l.sid, buf: buf, done: make(chan struct{})})
}

// tombstone commits a journal entry that ends session sid's history in
// the journal: recovery drops every earlier entry of sid, so a later
// session with the same ID never receives them. Store.Remove calls it.
func (c *Committer) tombstone(sid string) error {
	_, err := c.submit(&commitReq{sid: sid, done: make(chan struct{})})
	return err
}

// adopt adds logs to the dirty set: Recover hands over the WALs it
// spliced journal frames into without an fsync, so the next rotation
// syncs them before it truncates the journal.
func (c *Committer) adopt(logs []*Log) {
	select {
	case c.adopted <- logs:
	case <-c.done:
		// A stopped committer never rotates; the journal it leaves
		// behind still covers these WALs.
	}
}

// submit queues req and blocks until its group is durable (or failed).
func (c *Committer) submit(req *commitReq) (int, error) {
	select {
	case c.reqs <- req:
	case <-c.done:
		return 0, ErrCommitterStopped
	}
	select {
	case <-req.done:
		return req.n, req.err
	case <-c.done:
		// The committer exited while we waited; it either completed the
		// request or failed it during its drain — never silently drops it.
		select {
		case <-req.done:
			return req.n, req.err
		default:
			return 0, ErrCommitterStopped
		}
	}
}

// run is the committer loop: one group per iteration, stop always
// selectable. On exit the journal file is closed; its contents stay on
// disk for the next boot's merge.
func (c *Committer) run() {
	defer close(c.done)
	defer c.j.f.Close() //caliblint:allow durablesync -- the journal is append-and-fsync per group; at stop there is nothing unsynced for close to lose
	for {
		select {
		case req := <-c.reqs:
			c.commitGroup(c.collect(req))
		case logs := <-c.adopted:
			for _, l := range logs {
				c.j.dirty[l] = struct{}{}
			}
		case <-c.stop:
			c.failPending()
			return
		}
	}
}

// collectYields bounds how many scheduler yields collect spends waiting
// for stragglers. Each yield is ~a microsecond against a multi-hundred
// microsecond fsync, so a fruitless window costs well under 1% latency.
const collectYields = 4

// collect folds every request already queued (up to maxGroup) into the
// group that first opened. No timer — but the workers released by the
// previous group need a few microseconds to process their responses and
// resubmit, so a purely non-blocking drain would commit a near-empty
// group and burn a full fsync on it. collect instead yields the
// processor a bounded number of times, re-draining after each yield and
// resetting the allowance whenever a request arrives, which lets a
// cohort of concurrent sessions re-form into one group without ever
// parking on a clock.
func (c *Committer) collect(first *commitReq) []*commitReq {
	batch := []*commitReq{first}
	idle := 0
	for len(batch) < maxGroup && idle < collectYields {
		select {
		case r := <-c.reqs:
			batch = append(batch, r)
			idle = 0
		default:
			runtime.Gosched()
			idle++
		}
	}
	return batch
}

// failPending rejects everything still queued at stop time so no worker
// is left blocked on a group that will never run.
func (c *Committer) failPending() {
	for {
		select {
		case req := <-c.reqs:
			req.err = ErrCommitterStopped
			close(req.done)
		default:
			return
		}
	}
}

// commitGroup makes one group durable: every record is written to its
// session WAL (unsynced) and to the journal, then one journal fsync
// covers the whole group, then every waiter is released. A failed or
// short session-WAL write poisons that log (see Log.poison) and fails
// its request without touching the others; a failed journal write or
// fsync fails — and is observed by — every waiter whose record rode the
// group, poisons their logs (the records' durability is unknown), and
// breaks the journal so later groups fail fast.
func (c *Committer) commitGroup(batch []*commitReq) {
	j := c.j
	j.buf = j.buf[:0]
	var good []*commitReq
	logs := make(map[*Log]struct{}, len(batch))
	for _, r := range batch {
		if j.broken != nil {
			r.err = j.broken
			continue
		}
		if r.log != nil {
			if err := r.log.writeFrame(r.buf); err != nil {
				r.err = err
				continue
			}
			logs[r.log] = struct{}{}
		}
		j.seq++
		j.buf = appendGroupEntry(j.buf, j.seq, r.sid, r.buf)
		good = append(good, r)
		r.n = len(r.buf)
	}

	if len(good) > 0 {
		err := j.write()
		if err == nil {
			err = j.f.Sync()
		}
		if err != nil {
			j.broken = fmt.Errorf("store: group journal failed: %w", err)
			for _, r := range good {
				if r.log != nil {
					r.log.poison(j.broken)
				}
				r.err = j.broken
			}
			good = nil
		} else {
			for l := range logs {
				j.dirty[l] = struct{}{}
			}
		}
	}

	if len(good) > 0 {
		c.groups.Add(1)
		c.records.Add(uint64(len(good)))
		if obs := c.obs.Load(); obs != nil {
			(*obs)(len(good), len(logs))
		}
	}
	// Rotate before releasing the waiters: every journal access then
	// happens-before the release, so a released worker (or a test driving
	// commitGroup directly) sees a quiescent journal. The next group
	// could not start during the rotation anyway, so this costs no
	// throughput — only the rare over-threshold group waits out the pass.
	if j.broken == nil && j.size > j.rotateAt {
		c.rotate()
	}
	for _, r := range batch {
		close(r.done)
	}
}

// write appends the group's framed entries to the journal file.
func (j *journal) write() error {
	n, err := j.f.Write(j.buf)
	if err == nil && n < len(j.buf) {
		err = fmt.Errorf("store: short journal write (%d of %d bytes)", n, len(j.buf))
	}
	if err != nil {
		return err
	}
	j.size += int64(n)
	return nil
}

// rotate bounds the journal: every session WAL holding journal-covered
// records is fsynced, making the journal's copies redundant, and the
// journal is truncated. Best-effort — on any sync failure the journal
// is kept whole (acknowledged records stay durable in it) and rotation
// retries after the next group. A log closed in the meantime was synced
// by its Close and is simply dropped from the dirty set.
func (c *Committer) rotate() {
	j := c.j
	for l := range j.dirty {
		if err := l.fileSync(); err != nil {
			if errors.Is(err, os.ErrClosed) {
				delete(j.dirty, l)
				continue
			}
			return
		}
		delete(j.dirty, l)
	}
	if err := j.f.Truncate(0); err != nil {
		return
	}
	j.size = 0
}
