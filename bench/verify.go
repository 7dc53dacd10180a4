package main

import (
	"encoding/json"
	"fmt"

	"calibsched/internal/core"
	"calibsched/internal/offline"
	"calibsched/internal/online"
	"calibsched/internal/server"
)

// verifyRetirements checks each retired session's final schedule against
// batch Algorithm 2 run on the jobs the session was sent. An online
// algorithm decides step t from the jobs released by t, so over the
// served prefix [0, now) the session and the batch run must agree on the
// clock, the calibration count, the jobs started and the total cost.
func verifyRetirements(recs []retirement) []string {
	var bad []string
	for _, rec := range recs {
		if msg := verifyRetirement(rec); msg != "" {
			bad = append(bad, fmt.Sprintf("session b%03d-%d: %s", rec.slot, rec.life, msg))
		}
	}
	return bad
}

func verifyRetirement(rec retirement) string {
	var got server.ScheduleResponse
	if err := json.Unmarshal(rec.body, &got); err != nil {
		return fmt.Sprintf("decoding schedule: %v", err)
	}
	cals, assigned, total, err := batchPrefix(rec.jobs, rec.now)
	if err != nil {
		return err.Error()
	}
	switch {
	case got.Session.Now != rec.now:
		return fmt.Sprintf("clock %d, want %d", got.Session.Now, rec.now)
	case len(got.Calibrations) != cals:
		return fmt.Sprintf("%d calibrations, batch Alg2 has %d", len(got.Calibrations), cals)
	case got.Assigned != assigned:
		return fmt.Sprintf("%d jobs started, batch Alg2 started %d", got.Assigned, assigned)
	case got.TotalCost != total:
		return fmt.Sprintf("total cost %d, batch Alg2 has %d", got.TotalCost, total)
	}
	return ""
}

// batchPrefix runs batch Algorithm 2 on jobs and accounts the part of its
// schedule before now, exactly as GET …/schedule accounts a session:
// G per calibration plus the weighted flow of every started job.
func batchPrefix(jobs []server.JobSpec, now int64) (cals, assigned int, total int64, err error) {
	in, err := instanceOf(sessionT, jobs)
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := online.Alg2(in, sessionG)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, c := range res.Schedule.Calendar {
		if c.Start < now {
			cals++
		}
	}
	total = sessionG * int64(cals)
	for _, a := range res.Schedule.Assignments {
		if a.Start >= 0 && a.Start < now {
			j := in.Jobs[a.Job]
			assigned++
			total += j.Weight * (a.Start + 1 - j.Release)
		}
	}
	return cals, assigned, total, nil
}

// verifyClocks checks a recovered daemon's session list: exactly the
// slots' current sessions, each at the last clock the benchmark saw
// acknowledged.
func verifyClocks(list server.SessionListResponse, slots []*slot) []string {
	live := make(map[string]int64, len(list.Sessions))
	for _, s := range list.Sessions {
		live[s.ID] = s.Now
	}
	var bad []string
	if len(live) != len(slots) {
		bad = append(bad, fmt.Sprintf("recovered %d sessions, want %d", len(live), len(slots)))
	}
	for _, s := range slots {
		now, ok := live[s.id]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("session %s missing after restart", s.id))
		case now != s.now():
			bad = append(bad, fmt.Sprintf("session %s recovered at clock %d, last acknowledged %d", s.id, now, s.now()))
		}
	}
	return bad
}

// verifySolves checks each solve total against the sequential DP,
// offline.OptimalTotalCost, computed in-process. expect caches totals by
// instance key across phases.
func verifySolves(stream *solveStream, results []solveResult, expect map[int]int64) []string {
	var bad []string
	for _, r := range results {
		want, ok := expect[r.key]
		if !ok {
			var err error
			if want, err = optimalTotal(stream.instance(r.key)); err != nil {
				bad = append(bad, fmt.Sprintf("solve instance %d: %v", r.key, err))
				continue
			}
			expect[r.key] = want
		}
		if r.total != want {
			bad = append(bad, fmt.Sprintf("solve instance %d: total %d, want %d", r.key, r.total, want))
		}
	}
	return bad
}

// optimalTotal solves the canonical instance the daemon solves.
func optimalTotal(jobs []server.JobSpec) (int64, error) {
	in, err := instanceOf(solveT, jobs)
	if err != nil {
		return 0, err
	}
	total, _, _, err := offline.OptimalTotalCost(in.Canonicalize(), solveG)
	return total, err
}

// instanceOf builds the single-machine instance of a job list.
func instanceOf(t int64, jobs []server.JobSpec) (*core.Instance, error) {
	releases := make([]int64, len(jobs))
	weights := make([]int64, len(jobs))
	for i, j := range jobs {
		releases[i], weights[i] = j.Release, j.Weight
	}
	return core.NewInstance(1, t, releases, weights)
}
