package main

import (
	"bytes"
	"fmt"
	"testing"

	"calibsched/internal/server"
)

// recordTarget writes every op it receives, so a stream's ops can be
// compared byte for byte.
type recordTarget struct{ b *bytes.Buffer }

func (r recordTarget) create(s *slot) error {
	fmt.Fprintf(r.b, "create %s\n", s.id)
	return nil
}

func (r recordTarget) tick(s *slot, w []server.JobSpec) error {
	fmt.Fprintf(r.b, "tick %s %d %v\n", s.id, s.now(), w)
	return nil
}

func (r recordTarget) read(s *slot) ([]byte, error) {
	fmt.Fprintf(r.b, "read %s\n", s.id)
	return nil, nil
}

func (r recordTarget) remove(s *slot) error {
	fmt.Fprintf(r.b, "remove %s\n", s.id)
	return nil
}

// streamBytes renders the first n ops of a workload's stream, in the
// order the open loop issues them, plus its open-loop due times.
func streamBytes(t *testing.T, seed uint64, wl workload, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	if wl.solve {
		s := newSolveStream(seed)
		for k := 0; k < n; k++ {
			op := s.op(k)
			fmt.Fprintf(&b, "solve %d %v\n", op.key, op.jobs)
		}
	} else {
		slots := newSlots(seed, wl)
		rt := recordTarget{&b}
		for k := 0; k < n; k++ {
			if _, err := doOp(rt, slots[k%len(slots)], nil, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	fmt.Fprintln(&b, dueTimes(seed, wl.rate, 2e9))
	return b.Bytes()
}

func TestOpStreamDeterministic(t *testing.T) {
	for _, wl := range workloads {
		n := 5000
		if wl.solve {
			n = 300
		}
		a, b := streamBytes(t, 7, wl, n), streamBytes(t, 7, wl, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", wl.name)
		}
		if c := streamBytes(t, 8, wl, n); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", wl.name)
		}
		if !wl.solve && !bytes.Contains(a, []byte("remove ")) {
			t.Errorf("%s: %d ops retired no session; the stream never recycles", wl.name, n)
		}
	}
}

// TestLifeJobsKeepInstanceOrder checks the precondition of retirement
// verification: the server numbers jobs in the order they are sent, and
// core.NewInstance must number them the same way.
func TestLifeJobsKeepInstanceOrder(t *testing.T) {
	jobs := lifeJobs(3, 5, 2, 200)
	in, err := instanceOf(sessionT, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range in.Jobs {
		if j.ID != i || j.Release != jobs[i].Release || j.Weight != jobs[i].Weight {
			t.Fatalf("instance job %d = %+v, sent %+v", i, j, jobs[i])
		}
	}
}

func TestSolveInstancesAreCanonical(t *testing.T) {
	s := newSolveStream(11)
	for k := 0; k < 200; k++ {
		op := s.op(k)
		in, err := instanceOf(solveT, op.jobs)
		if err != nil {
			t.Fatal(err)
		}
		canon := in.Canonicalize()
		for i := range in.Jobs {
			if in.Jobs[i] != canon.Jobs[i] {
				t.Fatalf("op %d: canonicalization moved job %d", k, i)
			}
		}
		if n := len(op.jobs); n < solveMinJobs || n > solveMaxJobs {
			t.Fatalf("op %d has %d jobs", k, n)
		}
	}
}
