package main

import (
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/workload"
)

// workloadSpec is one named Monte Carlo campaign. The program receives
// only config() and a seed set; taps switches on
// MonteCarloOptions.Telemetry and .Forensics, the per-run registry,
// trace recorder, span log and postmortem analysis.
type workloadSpec struct {
	name   string
	config func() core.Config
	taps   bool
	// runsPer10s is the number of timed runs, over all rounds, per ten
	// seconds of --seconds: about that long on a 2-core Xeon at one
	// worker on one P. The seed count follows from --seconds, never from
	// a clock, so every invocation with the same flags does the same
	// work.
	runsPer10s int
}

// workloads are the benchmark's campaigns; README.md says why each
// exists and which layer it stresses.
var workloads = []workloadSpec{
	{name: "paper-farm", config: func() core.Config { return paperConfig(true) }, runsPer10s: 600},
	{name: "paper-spare", config: func() core.Config { return paperConfig(false) }, runsPer10s: 540},
	// The taps-off storm runs inside storm-observed: in its taps
	// identity check, and in the traced run's taps-off pass.
	{name: "storm-observed", config: stormConfig, taps: true, runsPer10s: 100},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// paperConfig is the paper's Table 2 base system at 1/10 scale: ~1,024
// one-terabyte drives holding ~20k two-way-mirrored 10 GB groups over
// the six-year design life.
func paperConfig(farm bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = 2 * disk.PB / 10
	cfg.UseFARM = farm
	return cfg
}

// stormConfig restates the ext-forensics everything-on FARM scenario
// (a hot vintage on an oversubscribed 10-rack fabric with switch,
// power and partition faults, latent errors with scrubbing, correlated
// bursts, transient read faults, fail-slow drives with straggler
// mitigation, and foreground demand under an AIMD throttle) from public
// types, at scale 0.01 (~103 drives) and a one-year horizon.
func stormConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = 2 * disk.PB / 100
	cfg.SimHours = disk.HoursPerYear
	cfg.VintageScale = 4
	cfg.ReplaceTrigger = 0.04
	cfg.Topology = topology.Config{
		Racks:                 10,
		UplinkMBps:            1000,
		OversubscriptionRatio: 4,
		FalseDeadHours:        24,
	}
	cfg.Faults.Network = faults.NetworkFaultConfig{
		SwitchFailsPerYear:    2,
		PowerEventsPerYear:    4,
		PowerRestoreMeanHours: 8,
		PartitionsPerYear:     50,
		PartitionMeanHours:    12,
	}
	cfg.Faults.LSERatePerDiskHour = 1e-5
	cfg.Faults.ScrubIntervalHours = 720
	cfg.Faults.BurstsPerYear = 6
	cfg.Faults.BurstMeanSize = 6
	cfg.Faults.TransientReadProb = 0.25
	cfg.Faults.FailSlow.OnsetRatePerDiskHour = 2e-5
	cfg.Faults.FailSlow.SlowFactor = 8
	cfg.Faults.FailSlow.CrawlProb = 0.4
	cfg.Faults.FailSlow.RecoveryMeanHours = 4000
	cfg.Straggler.Enabled = true
	cfg.Demand = workload.DemandConfig{
		BaseShare:        0.3,
		DiurnalAmplitude: 0.5,
		BurstsPerDay:     1,
		BurstShare:       0.25,
		RackSkew:         0.3,
		MaxShare:         0.7,
	}
	cfg.Throttle = workload.ThrottleConfig{Policy: workload.PolicyAIMD, FloorMBps: 8, MaxMBps: 32}
	return cfg
}
