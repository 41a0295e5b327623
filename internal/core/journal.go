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

// answersDigest hashes the rendered answers (group keys and range
// endpoints in order), so two journals can be diffed for answer drift
// without storing the answers themselves. FromConsistentPart is
// deliberately excluded: it is provenance (did the SAT path skip the
// solver), not part of the answer, and the rewriting route never sets
// it — hashing it would make identical answers from different routes
// look like drift.
func answersDigest(answers []GroupAnswer) string {
	h := fnv.New64a()
	for _, a := range answers {
		for _, v := range a.Key {
			fmt.Fprintf(h, "%v|", v)
		}
		fmt.Fprintf(h, "=%v..%v;%v\n", a.GLB, a.LUB, a.EmptyPossible)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// appendJournal emits the call's wide-event line. No-op without a
// journal; the append itself is non-blocking (the journal sheds entries
// when its writer lags), so this sits on the hot path of every engine
// call without perturbing it. answers is nil on an error exit — the
// line then carries the anomaly classification instead of a digest.
func (e *Engine) appendJournal(ctx context.Context, op, query string, answers []GroupAnswer, snap obsv.Snapshot, err error, start time.Time, dur time.Duration, anomaly, bundle string, rc *recorder) {
	j := e.opts.Journal
	if j == nil {
		return
	}
	label := obsv.QueryLabelFrom(ctx)
	if label == "" {
		label = query
	}
	entry := obsv.JournalEntry{
		Time:        start,
		Query:       label,
		Fingerprint: Fingerprint64(query),
		Op:          op,
		TraceID:     obsv.TraceIDFromContext(ctx),
		Options: obsv.JournalOptions{
			Algorithm:   e.opts.MaxSAT.Algorithm.String(),
			Mode:        e.modeString(),
			Parallelism: e.parallelism(),
			Incremental: e.incremental(),
			Planner:     e.opts.Planner.String(),
		},

		TotalMS:      float64(dur) / float64(time.Millisecond),
		WitnessMS:    float64(snap.Counters[obsv.MetricWitnessNS]) / float64(time.Millisecond),
		ConstraintMS: float64(snap.Gauges[obsv.MetricConstraintNS]) / float64(time.Millisecond),
		EncodeMS:     float64(snap.Counters[obsv.MetricEncodeNS]) / float64(time.Millisecond),
		SolveMS:      float64(snap.Counters[obsv.MetricSolveNS]) / float64(time.Millisecond),

		Witnesses:  snap.Counters[obsv.MetricWitnesses],
		SATCalls:   snap.Counters[obsv.MetricSATCalls],
		MaxSATRuns: int(snap.Counters[obsv.MetricMaxSATRuns]),
		Vars:       int(snap.Counters[obsv.MetricCNFVars]),
		Clauses:    int(snap.Counters[obsv.MetricCNFClauses]),

		BaseHits:          snap.Counters[obsv.MetricBaseHits],
		BaseMisses:        snap.Counters[obsv.MetricBaseMisses],
		ConstraintCached:  snap.Gauges[obsv.MetricConsCacheHit] != 0,
		FastPathRelations: snap.Gauges[obsv.MetricVioFastRels],

		Anomaly:      anomaly,
		FlightBundle: bundle,
	}
	if rc != nil && rc.routeStamped {
		entry.Route = rc.route.String()
		entry.RouteReason = rc.routeReason
		entry.RewriteMS = float64(snap.Counters[obsv.MetricRewriteNS]) / float64(time.Millisecond)
	}
	if err != nil {
		entry.Error = err.Error()
	} else {
		entry.Answers = len(answers)
		entry.AnswerDigest = answersDigest(answers)
	}
	j.Append(entry)
}
