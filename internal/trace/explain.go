package trace

import (
	"fmt"
	"io"
)

// ruleDocs maps each decision-rule identifier to the paper statement that
// justifies it. This is the single human-readable taxonomy; DESIGN.md §8
// carries the same table in prose and the tests pin the two against the
// emitters' rule names.
var ruleDocs = map[string]string{
	"alg1.flow-open":            "ski-rental flow trigger (Sec. 3.1, Lemma 3.2): the waiting jobs' flow if they start at the next step, f(t+1) = f(t) + w(Q), reached G, so calibrating now costs no more than letting flow accrue",
	"alg1.count-open":           "queue-size trigger (Algorithm 1 line 6, Lemma 3.2): at least G/T jobs wait, so one T-step interval amortizes its cost G across them",
	"alg1.immediate-open":       "immediate recalibration (Algorithm 1 line 10, Thm 3.3 charging): the previous interval accrued flow below G/2, so a fresh arrival calibrates immediately",
	"alg2.flow-open":            "ski-rental flow trigger (Sec. 3.2, Lemma 3.7): the waiting jobs' weighted flow if they start at the next step, f(t+1) = f(t) + w(Q), reached G",
	"alg2.weight-open":          "queued-weight trigger (Algorithm 2 line 6, Thm 3.8): waiting weight reached G/T, the weighted analogue of Algorithm 1's count rule",
	"alg2.queue-full-open":      "full-queue trigger (Algorithm 2's |Q| = T rule): T jobs wait, enough to fill an entire interval",
	"alg3.flow-open":            "ski-rental flow trigger on the shared queue (Algorithm 3, Thm 3.10): the waiting jobs' flow if they start at the next step, f(t+1) = f(t) + w(Q), reached G",
	"alg3.count-open":           "queue-size trigger, round-robin machine (Algorithm 3 line 10, Thm 3.10): at least G/T jobs wait",
	"alg2multi.flow-open":       "ski-rental flow trigger on the shared weighted queue (extension; fuses Algorithm 2's rule with Algorithm 3's calendar): the waiting jobs' weighted flow if they start at the next step, f(t+1) = f(t) + w(Q), reached G",
	"alg2multi.weight-open":     "queued-weight trigger, round-robin machine (extension of Algorithm 2 line 6 to P machines)",
	"alg2multi.queue-full-open": "full-queue trigger, round-robin machine (extension of Algorithm 2's |Q| = T rule)",
	"offline.dp.cover-open":     "greedy cover of the DP slots (Thm 4.7): the Proposition 1/2 optimum fixed this job's start outside every open interval, so a new interval opens here",
}

// RuleDoc returns the paper-aligned justification for a decision-rule
// identifier, or "" if the rule is unknown.
func RuleDoc(rule string) string { return ruleDocs[rule] }

// Rules lists every documented decision-rule identifier (unordered).
func Rules() []string {
	out := make([]string, 0, len(ruleDocs))
	for r := range ruleDocs {
		out = append(out, r)
	}
	return out
}

// WriteExplanation replays a decision trace as a human-readable
// per-calibration justification: one block per event giving the rule that
// fired, the queue evidence behind it, and the paper statement it
// instantiates. t and g are the instance's calibration length and cost,
// used to restate the trigger inequality with concrete numbers.
func WriteExplanation(w io.Writer, t, g int64, events []DecisionEvent) error {
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "no calibrations: no trigger ever fired")
		return err
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "calibration #%d  t=%d  machine=%d  rule=%s\n",
			ev.Calibrations, ev.Time, ev.Machine, ev.Rule); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  queue: %d job(s), weight %d, prospective flow %d; spent so far: %d calibration(s) costing %d\n",
			ev.QueueLen, ev.QueueWeight, ev.ProspectiveFlow, ev.Calibrations, ev.AccruedCost); err != nil {
			return err
		}
		if ineq := triggerInequality(ev, t, g); ineq != "" {
			if _, err := fmt.Fprintf(w, "  fired because %s\n", ineq); err != nil {
				return err
			}
		}
		doc := RuleDoc(ev.Rule)
		if doc == "" {
			doc = "undocumented rule (update internal/trace ruleDocs and DESIGN.md §8)"
		}
		if _, err := fmt.Fprintf(w, "  why: %s\n\n", doc); err != nil {
			return err
		}
	}
	return nil
}

// triggerInequality restates the fired trigger's condition with the
// event's numbers, or "" when the rule has no single inequality (the
// immediate rule and the offline cover).
func triggerInequality(ev DecisionEvent, t, g int64) string {
	switch ev.Rule {
	case "alg1.flow-open", "alg2.flow-open", "alg3.flow-open", "alg2multi.flow-open":
		// The engines test the flow of the queue scheduled from t+1, which
		// is the event's prospective flow (scheduled from t) plus one more
		// step of waiting for every queued job: f(t+1) = f(t) + w(Q).
		return fmt.Sprintf("flow from t+1 = prospective flow + w(Q) = %d + %d = %d >= G = %d",
			ev.ProspectiveFlow, ev.QueueWeight, ev.ProspectiveFlow+ev.QueueWeight, g)
	case "alg1.count-open", "alg3.count-open":
		return fmt.Sprintf("T*|Q| = %d*%d = %d >= G = %d", t, ev.QueueLen, t*int64(ev.QueueLen), g)
	case "alg2.weight-open", "alg2multi.weight-open":
		return fmt.Sprintf("T*w(Q) = %d*%d = %d >= G = %d", t, ev.QueueWeight, t*ev.QueueWeight, g)
	case "alg2.queue-full-open", "alg2multi.queue-full-open":
		return fmt.Sprintf("|Q| = %d >= T = %d", ev.QueueLen, t)
	}
	return ""
}
