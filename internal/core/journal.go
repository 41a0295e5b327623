package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"aggcavsat/internal/obsv"
)

// Fingerprint64 is the stable query fingerprint stamped on journal
// lines and used as the query component of the server result-cache key:
// FNV-1a over the canonical rendering, hex-encoded. Two spellings that
// render to the same algebraic query share a fingerprint, so journal
// analysis can group by query without string matching.
func Fingerprint64(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// AnswersDigest hashes the rendered answers (group keys and range
// endpoints in order), so two journals — or a run and the bench gate's
// golden file — can be diffed for answer drift without storing the
// answers themselves. FromConsistentPart is deliberately excluded: it
// is provenance (did the SAT path skip the solver), not part of the
// answer, and the rewriting route never sets it — hashing it would make
// identical answers from different routes look like drift.
func AnswersDigest(answers []GroupAnswer) string {
	h := fnv.New64a()
	for _, a := range answers {
		for _, v := range a.Key {
			fmt.Fprintf(h, "%v|", v)
		}
		fmt.Fprintf(h, "=%v..%v;%v\n", a.GLB, a.LUB, a.EmptyPossible)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// journalEntry projects the call's wide-event line from its record and
// Stats: the journal appends it, and an anomaly's flight bundle embeds
// it. answers is nil on an error exit — the line then carries the
// anomaly classification instead of a digest.
func (e *Engine) journalEntry(ctx context.Context, rc *recorder, st Stats, answers []GroupAnswer, err error, dur time.Duration, anomaly string) obsv.JournalEntry {
	label := obsv.QueryLabelFrom(ctx)
	if label == "" {
		label = rc.query
	}
	entry := obsv.JournalEntry{
		Version:     obsv.JournalVersion,
		Time:        rc.start,
		Query:       label,
		Fingerprint: Fingerprint64(rc.query),
		Op:          rc.op,
		TraceID:     obsv.TraceIDFromContext(ctx),
		Options: obsv.JournalOptions{
			Algorithm:   e.opts.MaxSAT.Algorithm().String(),
			Mode:        e.modeString(),
			Parallelism: e.parallelism(),
			Planner:     e.opts.Planner.String(),
		},
		Route:       rc.route,
		RouteReason: rc.routeReason,

		TotalMS:      ms(dur),
		RewriteMS:    ms(st.RewriteTime),
		WitnessMS:    ms(st.WitnessTime),
		ConstraintMS: ms(st.ConstraintTime),
		EncodeMS:     ms(st.EncodeTime),
		SolveMS:      ms(st.SolveTime),

		Witnesses:       rc.witnesses,
		Groups:          rc.groups,
		SATCalls:        st.SATCalls,
		MaxSATRuns:      st.MaxSATRuns,
		Vars:            st.Vars,
		Clauses:         st.Clauses,
		MaxVars:         st.MaxVars,
		MaxClauses:      st.MaxClauses,
		ConsistentSkips: st.ConsistentPartSkips,

		WitnessAllocBytes: st.WitnessAllocBytes,
		EncodeAllocBytes:  st.EncodeAllocBytes,
		SolveAllocBytes:   st.SolveAllocBytes,
		HeapBytes:         st.HeapBytes,
		GCCycles:          st.GCCycles,

		BaseHits:         rc.baseHits,
		BaseMisses:       rc.baseMisses,
		ConstraintCached: rc.constraintCached(),

		Anomaly: anomaly,
	}
	if rc.cc != nil {
		entry.FastPathRelations = int64(rc.cc.fastRels)
		entry.GenericDCs = int64(rc.cc.genericDCs)
	}
	if err != nil {
		entry.Error = err.Error()
	} else {
		entry.Answers = len(answers)
		entry.AnswerDigest = AnswersDigest(answers)
	}
	return entry
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
