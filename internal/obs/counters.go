package obs

// RunCounters is the per-run tally set: every count a simulation run
// keeps, declared once. The core simulator and the recovery engine of
// one run share a single instance and increment each field exactly once
// where the counted fact happens; core.RunResult
// embeds the struct, and Publish exports it to a metrics registry when
// the run ends. Nothing reads a registry counter mid-run, so publishing
// at the end yields the same exposition as live increments would.
type RunCounters struct {
	// LostGroups counts groups that lost data: the cluster latches each
	// loss, and the run copies its count here when it ends.
	LostGroups int
	// DiskFailures counts drive deaths (including spares and batch
	// drives).
	DiskFailures int
	// BlocksRebuilt counts completed block reconstructions.
	BlocksRebuilt int
	// Redirections counts recovery-target failures that forced a rebuild
	// to an alternative target (§2.3 "recovery redirection").
	Redirections int
	// RebuildsDropped counts rebuilds abandoned because the group lost
	// data or exhausted every source.
	RebuildsDropped int
	// SparesUsed counts dedicated spares activated (spare-disk engine
	// only).
	SparesUsed int
	// BatchesAdded counts replacement batches injected.
	BatchesAdded int
	// DisksAdded counts drives injected by replacement.
	DisksAdded int
	// PredictedFailures counts failures flagged in advance by the
	// S.M.A.R.T. monitor; DrainedBlocks counts blocks moved off suspect
	// drives before they died.
	PredictedFailures int
	DrainedBlocks     int
	// Fault-injection accounting (zero unless faults are enabled).
	// LSEInjected counts latent sector errors that arrived; LSEDetected
	// counts those discovered by rebuild reads; ScrubFound counts those
	// discovered (and queued for repair) by the scrubber. Undiscovered
	// errors either die with their disk or silently ride to the horizon.
	LSEInjected int
	LSEDetected int
	ScrubFound  int
	// ProbeReads counts rebuild source reads the fault injector
	// classified; ProbeLatent counts those that hit a latent sector
	// error.
	ProbeReads  int
	ProbeLatent int
	// RebuildRetries counts backed-off re-attempts after transient
	// source-read faults; TransientFaults counts the faults themselves
	// (the probed reads that failed transiently); Resourcings counts
	// rebuilds that switched source.
	RebuildRetries  int
	TransientFaults int
	Resourcings     int
	// Bursts counts correlated-failure bursts; BurstKills counts the
	// drive deaths they injected (some may coincide with natural deaths).
	Bursts     int
	BurstKills int
	// QueuedSpareJobs counts recovery jobs that waited for an exhausted
	// spare pool (spare-disk engine with a finite pool).
	QueuedSpareJobs int
	// Fail-slow and straggler-mitigation accounting. FailSlowOnsets
	// counts drives that degraded; FailSlowRecoveries counts spontaneous
	// recoveries; SlowBursts counts correlated slow-bursts.
	FailSlowOnsets     int
	FailSlowRecoveries int
	SlowBursts         int
	// SlowFlagged counts detector flag transitions; SlowEvicted counts
	// drives the detector condemned; Hedges/HedgeWins count duplicate
	// transfers launched and won; RebuildTimeouts counts hard-aborted
	// attempts.
	SlowFlagged     int
	SlowEvicted     int
	Hedges          int
	HedgeWins       int
	RebuildTimeouts int
	// Network-fault accounting. SwitchFails counts ToR-switch deaths;
	// RackPowerEvents and Partitions count the transient rack outages;
	// PartitionHeals counts racks that came back. FalseDeadRacks counts
	// dark racks the false-dead timer declared lost, and FalseDeadDisks
	// the (healthy) drives written off with them.
	SwitchFails     int
	RackPowerEvents int
	Partitions      int
	PartitionHeals  int
	FalseDeadRacks  int
	FalseDeadDisks  int
	// ParkedTransfers counts rebuilds parked against a dark rack instead
	// of abandoned; CrossRackTransfers/CrossRackBytes tally completed
	// transfers that crossed the rack fabric.
	ParkedTransfers    int
	CrossRackTransfers int
	CrossRackBytes     int64
	// Foreground-coexistence accounting. DemandBursts counts burst
	// episodes that began within the horizon; DegradedReads counts user
	// reads served by reconstruction during a window of vulnerability;
	// ThrottleSteps counts recovery-rate changes the QoS policy made.
	DemandBursts  int
	DegradedReads int
	ThrottleSteps int
	// Maintenance accounting. PlannedDrains counts drives sent through
	// the proactive drain exit; UpgradeWindows counts rolling-upgrade rack
	// windows; FencedParks counts rebuilds parked against a write-fenced
	// target; GrowthBatches/GrowthDisksAdded tally scheduled capacity
	// growth.
	PlannedDrains    int
	UpgradeWindows   int
	FencedParks      int
	GrowthBatches    int
	GrowthDisksAdded int
}

// Publish adds every counter into its named registry counter,
// registering counters that are still zero so the exposition lists the
// whole catalogue. This is the one place a tally meets its metric name.
func (c *RunCounters) Publish(r *Registry) {
	for _, p := range [...]struct {
		n Name
		v int64
	}{
		{MetricDataLossGroups, int64(c.LostGroups)},
		{MetricDiskFailures, int64(c.DiskFailures)},
		{MetricBlocksRebuilt, int64(c.BlocksRebuilt)},
		{MetricRedirections, int64(c.Redirections)},
		{MetricRebuildsDropped, int64(c.RebuildsDropped)},
		{MetricSparesUsed, int64(c.SparesUsed)},
		{MetricBatchesAdded, int64(c.BatchesAdded)},
		{MetricDisksAdded, int64(c.DisksAdded)},
		{MetricPredicted, int64(c.PredictedFailures)},
		{MetricDrainedBlocks, int64(c.DrainedBlocks)},
		{MetricLSEInjected, int64(c.LSEInjected)},
		{MetricLSEDetected, int64(c.LSEDetected)},
		{MetricScrubFound, int64(c.ScrubFound)},
		{MetricProbeReads, int64(c.ProbeReads)},
		{MetricProbeLatent, int64(c.ProbeLatent)},
		{MetricRetries, int64(c.RebuildRetries)},
		{MetricTransientFaults, int64(c.TransientFaults)},
		// A transient fault is a probed read that failed transiently:
		// one fact under two names.
		{MetricProbeTransient, int64(c.TransientFaults)},
		{MetricResourcings, int64(c.Resourcings)},
		{MetricBursts, int64(c.Bursts)},
		{MetricBurstKills, int64(c.BurstKills)},
		{MetricSpareWaits, int64(c.QueuedSpareJobs)},
		{MetricFailSlowOnsets, int64(c.FailSlowOnsets)},
		{MetricFailSlowRecovers, int64(c.FailSlowRecoveries)},
		{MetricSlowBursts, int64(c.SlowBursts)},
		{MetricSlowFlagged, int64(c.SlowFlagged)},
		{MetricSlowEvicted, int64(c.SlowEvicted)},
		{MetricHedges, int64(c.Hedges)},
		{MetricHedgeWins, int64(c.HedgeWins)},
		{MetricTimeouts, int64(c.RebuildTimeouts)},
		{MetricSwitchFails, int64(c.SwitchFails)},
		{MetricRackPowerEvents, int64(c.RackPowerEvents)},
		{MetricPartitions, int64(c.Partitions)},
		{MetricPartitionHeals, int64(c.PartitionHeals)},
		{MetricFalseDeadRacks, int64(c.FalseDeadRacks)},
		{MetricFalseDeadDisks, int64(c.FalseDeadDisks)},
		{MetricParkedTransfers, int64(c.ParkedTransfers)},
		{MetricCrossRackTransfers, int64(c.CrossRackTransfers)},
		{MetricCrossRackBytes, c.CrossRackBytes},
		{MetricDemandBursts, int64(c.DemandBursts)},
		{MetricDegradedReads, int64(c.DegradedReads)},
		{MetricThrottleSteps, int64(c.ThrottleSteps)},
		{MetricDrainsPlanned, int64(c.PlannedDrains)},
		{MetricUpgradeWins, int64(c.UpgradeWindows)},
		{MetricFencedParks, int64(c.FencedParks)},
		{MetricGrowthBatches, int64(c.GrowthBatches)},
		{MetricGrowthDisks, int64(c.GrowthDisksAdded)},
	} {
		r.Counter(p.n).Add(uint64(p.v))
	}
}
