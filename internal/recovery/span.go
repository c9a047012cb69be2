package recovery

import (
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the engines' span layer: rebuild-lifecycle bookkeeping
// feeding the obs flight recorder. Everything here is strictly
// observational — spans and metrics never influence a scheduling
// decision — and everything is dormant unless SetObservability installs
// a span log (per-rebuild span accounting) or a histogram bundle (a sink
// bundle is installed by default so record sites need no nil checks).
//
// Accounting model: a rebuild is one span; each (re)submission of its
// primary task is one attempt. When an attempt ends — completion,
// cancellation for redirection/re-sourcing, abandonment, or a hedge win
// — its queue wait (transfer start − submission) and transfer time
// (end − transfer start) fold into the span's phase accumulators. The
// spanDone latch makes attempt-end accounting idempotent: terminal
// paths that cascade (complete → re-source → abandon) account the
// attempt exactly once, and submitTracked re-arms the latch for the
// next attempt.

// SetObservability implements Engine: it installs the pre-resolved
// histogram bundle (nil restores the default sink) and the span log (nil
// disables span accounting). With spans enabled the scheduler's OnStart
// hook is armed, which also emits the transfer-start trace event — new
// event kinds appear in the transcript only when spans are on, so
// existing transcripts stay byte-identical.
func (b *base) SetObservability(rm *obs.RecoveryMetrics, spans *obs.SpanLog) {
	if rm == nil {
		rm = obs.NewDiscardRecoveryMetrics()
	}
	b.rm = rm
	b.spans = spans
	if spans != nil {
		b.sched.OnStart = func(now sim.Time, t *Task) {
			if t.span != nil && t.span.StartAt < 0 {
				t.span.StartAt = float64(now)
			}
			b.observe(now, trace.KindTransferStart, t.Group, t.Rep, t.Target)
		}
	} else {
		b.sched.OnStart = nil
	}
}

// InFlight implements Engine: the number of tracked block rebuilds
// (transferring, queued, or backing off). Read-only; used by the state
// sampler.
func (b *base) InFlight() int { return b.inFlight }

// spanOpen opens the lifecycle span of one block rebuild detected now,
// emitting the rebuild-queued trace event. Returns nil when spans are
// disabled; every accounting helper below tolerates a nil span.
func (b *base) spanOpen(group, rep int, failedAt sim.Time) *obs.Span {
	if b.spans == nil {
		return nil
	}
	now := b.eng.Now()
	b.observe(now, trace.KindRebuildQueued, group, rep, -1)
	return b.spans.Start(group, rep, float64(failedAt), float64(now), float64(now))
}

// spanEndAttempt folds the rebuild's current attempt into its span's
// phase accumulators. Call it at the instant the attempt ends, BEFORE
// the task is cancelled or replaced (the task's state decides where the
// time went). Idempotent per attempt via the spanDone latch.
func (b *base) spanEndAttempt(r *rebuild, now sim.Time) {
	sp := r.span
	if sp == nil || r.spanDone {
		return
	}
	r.spanDone = true
	t := r.task
	switch {
	case t.onDone == nil:
		// Created for a backed-off retry but never submitted; the wait is
		// retry backoff, accounted by the retry bookkeeping in untrack.
	case t.Running() || t.Done():
		sp.QueueWait += float64(t.StartedAt - t.SubmittedAt)
		sp.Transfer += float64(now - t.StartedAt)
	default: // still pending in a disk FIFO queue
		sp.QueueWait += float64(now - t.SubmittedAt)
	}
}

// spanFinish latches the span's terminal outcome at now and feeds the
// per-run phase histograms. Safe on a nil span.
func (b *base) spanFinish(r *rebuild, now sim.Time, outcome string) {
	sp := r.span
	if sp == nil {
		return
	}
	sp.DoneAt = float64(now)
	sp.Outcome = outcome
	b.rm.QueueWaitHours.Observe(sp.QueueWait)
	b.rm.TransferHours.Observe(sp.Transfer)
	b.rm.RetryWaitHours.Observe(sp.RetryWait)
	b.rm.HedgeOverlapHours.Observe(sp.HedgeOverlap)
	b.rm.DetectWaitHours.Observe(sp.DetectWait())
}

// spanDropped finishes a span as dropped (nil-safe convenience for the
// abandonment paths).
func (b *base) spanDropped(r *rebuild, now sim.Time) {
	b.spanFinish(r, now, obs.OutcomeDropped)
}
