package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestGroupCommitConcurrent drives N session workers appending through
// the shared committer at once (the shape the server produces under
// concurrent load) and proves that every acknowledged record is
// recoverable from every log — group batching must never reorder,
// merge, or drop records within a session. Run under -race in CI, this
// also pins the committer's synchronization story.
func TestGroupCommitConcurrent(t *testing.T) {
	const sessions, steps = 8, 40
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	if s.Committer() == nil {
		t.Fatal("group-commit store has no committer")
	}

	logs := make([]*Log, sessions)
	for i := range logs {
		l, err := s.Create(fmt.Sprintf("s-%06d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i, l := range logs {
		wg.Add(1)
		go func(i int, l *Log) {
			defer wg.Done()
			for k := 1; k <= steps; k++ {
				if _, err := l.AppendSteps(StepsCommand{K: int64(k)}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d append: %v", i, err)
		}
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if got := s.Committer().Records(); got != sessions*(steps+1) {
		t.Fatalf("committer records = %d, want %d", got, sessions*(steps+1))
	}
	if g := s.Committer().Groups(); g == 0 || g > s.Committer().Records() {
		t.Fatalf("committer groups = %d (records %d)", g, s.Committer().Records())
	}
	s.Close()

	rec := recoverOne(t, s)
	if len(rec.Failed) != 0 || len(rec.Sessions) != sessions {
		t.Fatalf("recovered %d sessions, %d failed: %+v", len(rec.Sessions), len(rec.Failed), rec.Failed)
	}
	for _, rs := range rec.Sessions {
		if rs.Truncated {
			t.Fatalf("session %s truncated after clean close", rs.ID)
		}
		if len(rs.Commands) != steps {
			t.Fatalf("session %s recovered %d commands, want %d", rs.ID, len(rs.Commands), steps)
		}
		// Within a session the committed order is the append order.
		for k, cmd := range rs.Commands {
			if cmd.Steps == nil || cmd.Steps.K != int64(k+1) {
				t.Fatalf("session %s command %d = %+v, want K=%d", rs.ID, k, cmd, k+1)
			}
		}
		rs.Log.Close()
	}
}

// TestGroupCommitSingleWaiter proves the degenerate case: one in-flight
// append forms a group of one and keeps exact per-record durability.
func TestGroupCommitSingleWaiter(t *testing.T) {
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	l := writeSession(t, s, "s-000001")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Committer().Records(); got != 3 {
		t.Fatalf("committer records = %d, want 3", got)
	}
	s.Close()

	rs := recoverOne(t, s).Sessions[0]
	defer rs.Log.Close()
	if len(rs.Commands) != 2 {
		t.Fatalf("recovered %d commands, want 2", len(rs.Commands))
	}
}

// TestGroupSyncErrorFansOut pins the failure semantics: when the
// journal write or fsync fails, every waiter whose record rode that
// group observes the error — none is told its command is durable — the
// logs involved are poisoned against further appends, and the journal
// is marked broken so later groups fail fast.
func TestGroupSyncErrorFansOut(t *testing.T) {
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	l, err := s.Create("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
		t.Fatal(err)
	}

	// Force the journal append to fail: close its fd out from under the
	// committer (the moral equivalent of the device going away). The
	// committer is idle — no requests in flight — so driving commitGroup
	// directly from here is the same single-threaded access its own
	// goroutine would perform.
	s.Committer().j.f.Close()

	// Several waiters deterministically share the one failed group (the
	// channel path can't guarantee co-batching).
	batch := make([]*commitReq, 3)
	for i := range batch {
		l.seq++
		batch[i] = &commitReq{
			log:  l,
			buf:  appendRecord(nil, recordV1, RecordSteps, l.seq, []byte(`{"k":1}`)),
			done: make(chan struct{}),
		}
	}
	s.Committer().commitGroup(batch)

	for i, req := range batch {
		select {
		case <-req.done:
		default:
			t.Fatalf("waiter %d never released", i)
		}
		if req.err == nil || !strings.Contains(req.err.Error(), "group journal failed") {
			t.Fatalf("waiter %d error = %v, want the journal failure", i, req.err)
		}
	}
	if l.Poisoned() == nil {
		t.Fatal("log not poisoned after failed group")
	}
	if s.Committer().Groups() != 1 { // only the create's group counted
		t.Fatalf("failed group counted: groups = %d", s.Committer().Groups())
	}
	if _, err := l.AppendSteps(StepsCommand{K: 1}); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append after failed group = %v, want poisoned error", err)
	}

	// A fresh log hitting the broken journal fails fast without touching
	// the file, and its waiter still observes the breakage.
	l2, err := s.Create("s-000002")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err == nil || !strings.Contains(err.Error(), "group journal failed") {
		t.Fatalf("append on broken journal = %v, want the journal failure", err)
	}
}

// TestJournalRestoresLostWalTail is the machine-crash durability test
// for group commit: session WAL writes are acknowledged without their
// own fsync, so after a power loss the WAL file may be missing records
// the client was told are durable. The journal — fsynced per group —
// must restore them. A group-commit boot splices them back unsynced and
// keeps the journal, so a second power loss before any rotation loses
// the spliced bytes too, and the journal must restore them again. The
// next rotation fsyncs every WAL the boot spliced, the idle ones
// included, before it truncates the journal; the WALs alone then
// recover the same commands.
func TestJournalRestoresLostWalTail(t *testing.T) {
	const steps = 5
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	defer s.Close()
	ids := []string{"s-000001", "s-000002"}
	for _, id := range ids {
		l, err := s.Create(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= steps; k++ {
			if _, err := l.AppendSteps(StepsCommand{K: int64(k)}); err != nil {
				t.Fatal(err)
			}
		}
		l.Abort()
	}
	journal := filepath.Join(s.Root(), journalName)
	size := fileSize(t, journal)

	// recoverAll recovers both sessions and checks each replays steps
	// 1..want[i].
	recoverAll := func(boot string, want ...int) *Recovery {
		t.Helper()
		rec := recoverOne(t, s)
		if len(rec.Failed) != 0 || len(rec.Sessions) != len(ids) {
			t.Fatalf("%s: recovered %d sessions, %d failed: %+v", boot, len(rec.Sessions), len(rec.Failed), rec.Failed)
		}
		for i, rs := range rec.Sessions {
			if len(rs.Commands) != want[i] {
				t.Fatalf("%s: session %s recovered %d commands, want %d", boot, rs.ID, len(rs.Commands), want[i])
			}
			for k, cmd := range rs.Commands {
				if cmd.Steps == nil || cmd.Steps.K != int64(k+1) {
					t.Fatalf("%s: session %s command %d = %+v, want K=%d", boot, rs.ID, k, cmd, k+1)
				}
			}
		}
		return rec
	}
	for pass := 1; pass <= 2; pass++ {
		// Power loss: the WALs' unsynced pages never reached the platter,
		// the previous boot's splice included.
		for _, id := range ids {
			if err := os.Truncate(filepath.Join(s.Root(), id, walName), 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, rs := range recoverAll(fmt.Sprintf("boot %d", pass), steps, steps).Sessions {
			rs.Log.Abort()
		}
		if got := fileSize(t, journal); got != size {
			t.Fatalf("boot %d changed the journal from %d to %d bytes", pass, size, got)
		}
	}

	rec := recoverAll("boot 3", steps, steps)
	idle, busy := rec.Sessions[0].Log, rec.Sessions[1].Log
	synced := false
	idle.syncf = func() error {
		synced = true
		return idle.f.Sync()
	}
	s.Committer().j.rotateAt = 0 // rotate after the next group
	if _, err := busy.AppendSteps(StepsCommand{K: steps + 1}); err != nil {
		t.Fatal(err)
	}
	if !synced {
		t.Fatal("rotation did not fsync the idle session's spliced WAL")
	}
	if got := fileSize(t, journal); got != 0 {
		t.Fatalf("journal holds %d bytes after the rotation", got)
	}
	idle.Abort()
	busy.Abort()
	for _, rs := range recoverAll("boot after the rotation", steps, steps+1).Sessions {
		rs.Log.Abort()
	}
}

// TestJournalTornTailIgnored: a crash mid-group leaves a torn entry at
// the journal's end; none of that group's records were acknowledged, so
// recovery must serve exactly the acknowledged prefix and discard the
// tail without failing the session.
func TestJournalTornTailIgnored(t *testing.T) {
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	defer s.Close()
	l, err := s.Create("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSteps(StepsCommand{K: 7}); err != nil {
		t.Fatal(err)
	}
	l.Abort()

	// Lose the WAL (power loss) and tear the journal's tail (the crash
	// interrupted the next group's write).
	if err := os.Truncate(l.Dir()+"/"+walName, 0); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(s.Root()+"/"+journalName, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	entry := appendGroupEntry(nil, 99, "s-000001", appendRecord(nil, recordV1, RecordSteps, 9, []byte(`{"k":9}`)))
	if _, err := jf.Write(entry[:len(entry)/2]); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	rs := recoverOne(t, s).Sessions[0]
	defer rs.Log.Close()
	if len(rs.Commands) != 1 || rs.Commands[0].Steps == nil || rs.Commands[0].Steps.K != 7 {
		t.Fatalf("recovered commands = %+v, want the single acknowledged step", rs.Commands)
	}
}

// journaledSession logs create and six steps through group commit, with
// a snapshot after the third step (seq 4), then simulates power loss:
// the WAL loses its unsynced tail, seq 5 and 6, which only the journal
// still holds.
func journaledSession(t *testing.T, s *Store) string {
	t.Helper()
	l, err := s.Create("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 5; k++ {
		if k == 4 {
			if err := l.WriteSnapshot(sampleSnapshot()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.AppendSteps(StepsCommand{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	l.Abort()
	if err := os.Truncate(filepath.Join(l.Dir(), walName), 0); err != nil {
		t.Fatal(err)
	}
	return l.Dir()
}

// walSeqs lists the sequence numbers of a WAL's valid records.
func walSeqs(t *testing.T, dir string) []uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := ScanRecords(data)
	var seqs []uint64
	for _, r := range recs {
		seqs = append(seqs, r.Seq)
	}
	return seqs
}

// TestJournalSplicesAboveSnapshot: the merge's horizon comes from the
// snapshot read in the same pass, so only the records the snapshot does
// not cover are spliced back, and recovery replays exactly those.
func TestJournalSplicesAboveSnapshot(t *testing.T) {
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	defer s.Close()
	dir := journaledSession(t, s)

	rs := recoverOne(t, s).Sessions[0]
	defer rs.Log.Close()
	if rs.Snap == nil || rs.Snap.Seq != 4 {
		t.Fatalf("snapshot = %+v, want seq 4", rs.Snap)
	}
	if len(rs.Commands) != 2 || rs.Commands[0].Steps.K != 4 || rs.Commands[1].Steps.K != 5 {
		t.Fatalf("replayed %+v, want steps 4 and 5", rs.Commands)
	}
	if got := walSeqs(t, dir); !reflect.DeepEqual(got, []uint64{5, 6}) {
		t.Fatalf("wal holds seqs %v after the merge, want [5 6]", got)
	}
}

// TestJournalSplicedBehindCorruptSnapshot: a session whose snapshot is
// corrupt fails recovery, but still gets its journal frames spliced into
// the WAL kept for inspection, and fsynced there, since no Log takes it
// to a rotation. A boot with group commit keeps the journal; a boot
// without it drops the journal after the merge.
func TestJournalSplicedBehindCorruptSnapshot(t *testing.T) {
	for _, group := range []bool{true, false} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
			dir := journaledSession(t, s)
			s.Close()
			if err := os.WriteFile(filepath.Join(dir, snapName), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			boot, err := Open(s.Root(), Options{Fsync: FsyncAlways, GroupCommit: group})
			if err != nil {
				t.Fatal(err)
			}
			defer boot.Close()

			rec := recoverOne(t, boot)
			if len(rec.Sessions) != 0 || len(rec.Failed) != 1 {
				t.Fatalf("recovered %d sessions, %d failed; want the session failed", len(rec.Sessions), len(rec.Failed))
			}
			if got := walSeqs(t, dir); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4, 5, 6}) {
				t.Fatalf("wal holds seqs %v after the merge, want the journal's 1..6", got)
			}
			if kept := fileSize(t, filepath.Join(s.Root(), journalName)) != 0; kept != group {
				t.Fatalf("journal kept = %v after a boot with group commit %v", kept, group)
			}
		})
	}
}

// TestJournalKeptOnSpliceFailure: when a covered WAL cannot take its
// frames, Recover fails and the journal survives, so the next boot
// retries the merge and loses nothing.
func TestJournalKeptOnSpliceFailure(t *testing.T) {
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	defer s.Close()
	dir := journaledSession(t, s)
	walPath := filepath.Join(dir, walName)
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(walPath, 0o755); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Recover(); err == nil || !strings.Contains(err.Error(), "merging journal") {
		t.Fatalf("Recover = %v, want a merge failure", err)
	}
	if fileSize(t, filepath.Join(s.Root(), journalName)) == 0 {
		t.Fatal("journal truncated although its merge failed")
	}

	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	rs := recoverOne(t, s).Sessions[0]
	defer rs.Log.Close()
	if len(rs.Commands) != 2 || rs.Log.Seq() != 6 {
		t.Fatalf("retried merge replayed %d commands to seq %d, want 2 to seq 6", len(rs.Commands), rs.Log.Seq())
	}
}

// TestCommitterStopFailsWaiters proves Store.Close never strands a
// worker: appends racing the stop either commit or fail cleanly with
// ErrCommitterStopped, and appends after the stop always fail.
func TestCommitterStopFailsWaiters(t *testing.T) {
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	l, err := s.Create("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := l.AppendSteps(StepsCommand{K: 1}); !errors.Is(err, ErrCommitterStopped) {
		t.Fatalf("append after store close = %v, want ErrCommitterStopped", err)
	}
	// The record the stopped committer rejected must not surface in
	// recovery: nothing was acknowledged, nothing may reappear.
	l.Abort()
	rs := recoverOne(t, s).Sessions[0]
	defer rs.Log.Close()
	if len(rs.Commands) != 0 {
		t.Fatalf("unacknowledged command recovered: %+v", rs.Commands)
	}
}

// TestTornMiddlePoisonsLog is the regression test for the
// acknowledged-then-lost bug: a failed (short) write used to leave the
// log accepting appends behind a corrupt frame, so recovery's
// torn-tail truncation silently discarded every later acknowledged
// record. Now the failure poisons the log: the torn append and every
// subsequent one fail loudly, so nothing acknowledged is ever lost.
func TestTornMiddlePoisonsLog(t *testing.T) {
	for _, opts := range []Options{
		{Fsync: FsyncNone},
		{Fsync: FsyncAlways},
		{Fsync: FsyncAlways, GroupCommit: true},
	} {
		name := opts.Fsync.String()
		if opts.GroupCommit {
			name += "/group"
		}
		t.Run(name, func(t *testing.T) {
			s := openTestStore(t, opts)
			defer s.Close()
			l, err := s.Create("s-000001")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendSteps(StepsCommand{K: 1}); err != nil {
				t.Fatal(err)
			}

			// One short write: half the frame reaches the file, as when
			// the disk fills or the kernel interrupts the write.
			torn := true
			l.writef = func(buf []byte) (int, error) {
				if torn {
					torn = false
					n, _ := l.f.Write(buf[:len(buf)/2])
					return n, nil
				}
				return l.f.Write(buf)
			}
			if _, err := l.AppendSteps(StepsCommand{K: 2}); err == nil {
				t.Fatal("short write acknowledged")
			}
			// The next append must fail too — were it accepted, recovery
			// would truncate it away behind the torn frame.
			if _, err := l.AppendSteps(StepsCommand{K: 3}); err == nil || !strings.Contains(err.Error(), "poisoned") {
				t.Fatalf("append after torn write = %v, want poisoned error", err)
			}
			if err := l.WriteSnapshot(&Snapshot{Create: CreateCommand{Alg: "alg2", T: 5, G: 10}}); err == nil {
				t.Fatal("snapshot accepted on poisoned log")
			}
			l.Abort()

			// Recovery serves exactly the acknowledged prefix.
			rs := recoverOne(t, s).Sessions[0]
			defer rs.Log.Close()
			if !rs.Truncated {
				t.Fatal("torn middle not reported as truncation")
			}
			if len(rs.Commands) != 1 || rs.Commands[0].Steps == nil || rs.Commands[0].Steps.K != 1 {
				t.Fatalf("recovered commands = %+v, want the single acknowledged step", rs.Commands)
			}
		})
	}
}

// TestAppendRecordReusesScratch pins the zero-alloc framing contract:
// encoding into a warm scratch buffer must not allocate, and the framed
// bytes must be identical to a fresh encode.
func TestAppendRecordReusesScratch(t *testing.T) {
	payload := []byte(`{"k":42}`)
	fresh := appendRecord(nil, recordV1, RecordSteps, 7, payload)
	scratch := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		scratch = appendRecord(scratch[:0], recordV1, RecordSteps, 7, payload)
	})
	if allocs != 0 {
		t.Fatalf("appendRecord into warm scratch allocates %.1f/op", allocs)
	}
	if string(scratch) != string(fresh) {
		t.Fatal("scratch encode differs from fresh encode")
	}
	rec, n, err := readRecord(scratch)
	if err != nil || n != len(scratch) || rec.Seq != 7 || string(rec.Payload) != string(payload) {
		t.Fatalf("round trip: rec=%+v n=%d err=%v", rec, n, err)
	}
}

// TestRemoveEndsJournalHistory: the journal outlives boots under group
// commit, so it can hold the records of a session that was removed while
// a later session of the same ID logs its own. Recovery must give the
// later session none of the earlier one's records: Remove commits a
// tombstone behind them. Each case first logs and removes session x
// (create, steps K=100..103).
func TestRemoveEndsJournalHistory(t *testing.T) {
	const id = "x"
	removed := func(t *testing.T) *Store {
		t.Helper()
		s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
		t.Cleanup(s.Close)
		l, err := s.Create(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
			t.Fatal(err)
		}
		for k := int64(100); k <= 103; k++ {
			if _, err := l.AppendSteps(StepsCommand{K: k}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("recreated", func(t *testing.T) {
		s := removed(t)
		l, err := s.Create(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendSteps(StepsCommand{K: 7}); err != nil {
			t.Fatal(err)
		}
		l.Abort()
		// Power loss: only the journal still holds the new session's
		// records, behind the old session's.
		if err := os.Truncate(filepath.Join(l.Dir(), walName), 0); err != nil {
			t.Fatal(err)
		}
		rec := recoverOne(t, s)
		if len(rec.Sessions) != 1 {
			t.Fatalf("recovered %d sessions, %d failed: %+v", len(rec.Sessions), len(rec.Failed), rec.Failed)
		}
		rs := rec.Sessions[0]
		defer rs.Log.Close()
		var ks []int64
		for _, cmd := range rs.Commands {
			ks = append(ks, cmd.Steps.K)
		}
		if !reflect.DeepEqual(ks, []int64{7}) || rs.Log.Seq() != 2 {
			t.Fatalf("recovered steps %v to seq %d, want [7] to seq 2", ks, rs.Log.Seq())
		}
	})

	t.Run("recreated-empty", func(t *testing.T) {
		// A crash after the new directory exists but before its first
		// record must not bring the old session back.
		s := removed(t)
		l, err := s.Create(id)
		if err != nil {
			t.Fatal(err)
		}
		l.Abort()
		rec := recoverOne(t, s)
		if len(rec.Sessions) != 0 || len(rec.Failed) != 1 {
			t.Fatalf("recovered %+v, failed %+v; want the empty session failed", rec.Sessions, rec.Failed)
		}
	})

	t.Run("import", func(t *testing.T) {
		s := removed(t)
		l, err := s.ImportSession(id, sampleSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		l.Abort()
		rec := recoverOne(t, s)
		if len(rec.Sessions) != 1 {
			t.Fatalf("recovered %d sessions, %d failed: %+v", len(rec.Sessions), len(rec.Failed), rec.Failed)
		}
		rs := rec.Sessions[0]
		defer rs.Log.Close()
		if rs.Snap == nil || rs.Snap.Seq != 1 || len(rs.Commands) != 0 || rs.Log.Seq() != 1 {
			t.Fatalf("imported session recovered snapshot %+v and %d commands to seq %d, want the snapshot at seq 1 alone",
				rs.Snap, len(rs.Commands), rs.Log.Seq())
		}
	})
}

// TestJournalOrphansDropped: journal frames of a session with no
// directory (a crash inside Remove before its tombstone, or a journal
// from a release without tombstones) make a group-commit boot merge and
// truncate the journal, so a later session of that ID cannot get them.
func TestJournalOrphansDropped(t *testing.T) {
	s := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	defer s.Close()
	l := writeSession(t, s, "s-000001")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(l.Dir()); err != nil {
		t.Fatal(err)
	}
	rec := recoverOne(t, s)
	if len(rec.Sessions)+len(rec.Failed) != 0 {
		t.Fatalf("recovered %+v, failed %+v from an empty root", rec.Sessions, rec.Failed)
	}
	if got := fileSize(t, filepath.Join(s.Root(), journalName)); got != 0 {
		t.Fatalf("journal holds %d bytes of a removed session after boot", got)
	}
}
