package obs

import (
	"errors"
	"fmt"
	"math"
)

// RecoveryMetrics is the pre-resolved histogram bundle the recovery
// engines record into. Resolving handles once at setup keeps the record
// paths free of map lookups and allocation. (The engines' counts live in
// RunCounters and are published when the run ends.)
type RecoveryMetrics struct {
	WindowHours       *Histogram
	QueueWaitHours    *Histogram
	TransferHours     *Histogram
	RetryWaitHours    *Histogram
	HedgeOverlapHours *Histogram
	DetectWaitHours   *Histogram
	DegradedLatencyMs *Histogram
}

// NewRecoveryMetrics resolves the recovery-engine handles on r.
func NewRecoveryMetrics(r *Registry) *RecoveryMetrics {
	return &RecoveryMetrics{
		WindowHours:       r.Histogram(MetricWindowHours, PhaseBounds),
		QueueWaitHours:    r.Histogram(MetricQueueWaitHours, PhaseBounds),
		TransferHours:     r.Histogram(MetricTransferHours, PhaseBounds),
		RetryWaitHours:    r.Histogram(MetricRetryWaitHours, PhaseBounds),
		HedgeOverlapHours: r.Histogram(MetricHedgeOverlapHours, PhaseBounds),
		DetectWaitHours:   r.Histogram(MetricDetectWaitHours, PhaseBounds),
		DegradedLatencyMs: r.Histogram(MetricDegradedLatency, LatencyBounds),
	}
}

// NewDiscardRecoveryMetrics returns a RecoveryMetrics sink whose
// handles all share one scratch histogram (a single +Inf bucket).
// Unobserved runs need a non-nil bundle so the record sites carry no nil
// checks; resolving a throwaway registry for that costs more
// allocations than the shared-handle sink's three. Nothing ever reads
// the scratch histogram, so the aliasing is invisible — but each run
// still needs its own sink (the handles are not atomic, so parallel
// Monte Carlo runs must not share one).
func NewDiscardRecoveryMetrics() *RecoveryMetrics {
	h := &Histogram{counts: make([]uint64, 1)}
	return &RecoveryMetrics{
		WindowHours:       h,
		QueueWaitHours:    h,
		TransferHours:     h,
		RetryWaitHours:    h,
		HedgeOverlapHours: h,
		DetectWaitHours:   h,
		DegradedLatencyMs: h,
	}
}

// SimMetrics is the simulator-level gauge bundle (internal/core),
// latched with the horizon state when the run ends.
type SimMetrics struct {
	ActiveRebuilds *Gauge
	QueuedRebuilds *Gauge
	BusyDisks      *Gauge
	RecoveryMBps   *Gauge
	DegradedGroups *Gauge
	LostGroups     *Gauge
	SparePoolFree  *Gauge
	AliveDisks     *Gauge
	SlowDisks      *Gauge
	SuspectDisks   *Gauge
	UserLoadShare  *Gauge
	ThrottleMBps   *Gauge
}

// NewSimMetrics resolves the simulator-level handles on r.
func NewSimMetrics(r *Registry) *SimMetrics {
	return &SimMetrics{
		ActiveRebuilds: r.Gauge(MetricActiveRebuilds),
		QueuedRebuilds: r.Gauge(MetricQueuedRebuilds),
		BusyDisks:      r.Gauge(MetricBusyDisks),
		RecoveryMBps:   r.Gauge(MetricRecoveryMBps),
		DegradedGroups: r.Gauge(MetricDegradedGroups),
		LostGroups:     r.Gauge(MetricLostGroups),
		SparePoolFree:  r.Gauge(MetricSparePoolFree),
		AliveDisks:     r.Gauge(MetricAliveDisks),
		SlowDisks:      r.Gauge(MetricSlowDisks),
		SuspectDisks:   r.Gauge(MetricSuspectDisks),
		UserLoadShare:  r.Gauge(MetricUserLoadShare),
		ThrottleMBps:   r.Gauge(MetricThrottleMBps),
	}
}

// StoreMetrics is the object-store handle bundle (internal/objstore):
// degraded-path data counters.
type StoreMetrics struct {
	DegradedReads  *Counter
	CorruptRegions *Counter
	Repairs        *Counter
	ShardsRebuilt  *Counter
}

// NewStoreMetrics resolves the object-store handles on r.
func NewStoreMetrics(r *Registry) *StoreMetrics {
	return &StoreMetrics{
		DegradedReads:  r.Counter(MetricObjDegradedReads),
		CorruptRegions: r.Counter(MetricObjCorruptRegions),
		Repairs:        r.Counter(MetricObjRepairs),
		ShardsRebuilt:  r.Counter(MetricObjShardsRebuilt),
	}
}

// RunObserver bundles the per-run observability configuration the core
// simulator threads through its layers. Every field is optional; the
// zero value (and a nil *RunObserver) disables the corresponding
// instrument and leaves the simulation untouched.
type RunObserver struct {
	// Registry, when non-nil, receives the metric catalogue of the run.
	Registry *Registry
	// Spans, when non-nil, records a rebuild-lifecycle span per block
	// rebuild.
	Spans *SpanLog
	// Series, when non-nil together with a positive SampleEveryHours,
	// receives periodic system-state samples.
	Series *Series
	// SampleEveryHours is the sampling cadence in simulated hours.
	SampleEveryHours float64

	// Memoized handle bundles over Registry, resolved on first use so
	// repeat runs against one observer re-register nothing and allocate
	// nothing (the metrics-on alloc parity gated by BENCH_5.json).
	sm *SimMetrics
	rm *RecoveryMetrics
}

// SimMetrics returns the simulator-level handle bundle over Registry,
// resolving it on first call. Registry must be non-nil.
func (o *RunObserver) SimMetrics() *SimMetrics {
	if o.sm == nil {
		o.sm = NewSimMetrics(o.Registry)
	}
	return o.sm
}

// RecoveryMetrics returns the recovery-engine handle bundle over
// Registry, resolving it on first call. Registry must be non-nil.
func (o *RunObserver) RecoveryMetrics() *RecoveryMetrics {
	if o.rm == nil {
		o.rm = NewRecoveryMetrics(o.Registry)
	}
	return o.rm
}

// ErrSampleCadence reports an invalid sampler configuration.
var ErrSampleCadence = errors.New("obs: non-positive sample cadence with a Series configured")

// Validate checks the observer configuration.
func (o *RunObserver) Validate() error {
	if o == nil {
		return nil
	}
	if math.IsNaN(o.SampleEveryHours) || math.IsInf(o.SampleEveryHours, 0) {
		return fmt.Errorf("obs: SampleEveryHours is not finite")
	}
	if o.Series != nil && o.SampleEveryHours <= 0 {
		return ErrSampleCadence
	}
	return nil
}
