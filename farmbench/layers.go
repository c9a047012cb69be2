package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/topology"
)

// placementSeedSalt mirrors core's placement-stream salt, so each
// rebuilt cluster.Config places its groups exactly as that seed's run
// does.
const placementSeedSalt = 0xfa57_feed_c0de_f00d

// clusterConfig restates, from public types, the cluster.Config that
// core builds for one seed of cfg.
func clusterConfig(cfg core.Config, seed uint64) (cluster.Config, error) {
	v, err := disk.NewVintage(fmt.Sprintf("table1-x%.2g", cfg.VintageScale), cfg.VintageScale)
	if err != nil {
		return cluster.Config{}, err
	}
	net, err := topology.NewNetwork(cfg.Topology)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Scheme:     cfg.Scheme,
		GroupBytes: cfg.GroupBytes,
		NumGroups:  cfg.NumGroups(),
		DiskModel: disk.Model{
			CapacityBytes: cfg.DiskCapacityBytes,
			BandwidthMBps: cfg.DiskBandwidthMBps,
			Vintage:       v,
		},
		InitialUtilization: cfg.InitialUtilization,
		PlacementSeed:      seed ^ placementSeedSalt,
		Net:                net,
	}, nil
}

// seedPass is one Simulator.Run per seed, timed from outside.
type seedPass struct {
	runMs     []float64 // Simulator.Run alone
	withTapMs []float64 // Run plus forensics.Analyze, as a campaign worker does
	results   []core.RunResult
	taps      []tapStats
}

func runSeedPass(cfg core.Config, base uint64, runs int, taps bool) (seedPass, error) {
	var p seedPass
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		res, ts, err := runSeed(cfg, base+uint64(i), taps)
		total := time.Since(t0)
		if err != nil {
			return p, fmt.Errorf("seed %d: %w", base+uint64(i), err)
		}
		p.runMs = append(p.runMs, ms(total-ts.analyze))
		p.withTapMs = append(p.withTapMs, ms(total))
		p.results = append(p.results, res)
		p.taps = append(p.taps, ts)
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics is the traced run: per-layer numbers over the timed
// seeds, from the timed phase (run under a CPU profile) and from three
// more passes: the workload's own per-seed runs, the same seeds with the
// taps flipped, and cluster.New alone.
func layerMetrics(out io.Writer, w workloadSpec, cfg core.Config, base uint64, runs int,
	t timedPhase, profile []byte, scaling float64) ([]metric, error) {
	own, err := runSeedPass(cfg, base, runs, w.taps)
	if err != nil {
		return nil, err
	}
	flipped, err := runSeedPass(cfg, base, runs, !w.taps)
	if err != nil {
		return nil, err
	}
	on, off := own, flipped
	if !w.taps {
		on, off = flipped, own
	}
	shares, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}

	buildMs := make([]float64, runs)
	loopMs := make([]float64, runs)
	var buildAllocs uint64
	var ms0, ms1 runtime.MemStats
	for i := range buildMs {
		ccfg, err := clusterConfig(cfg, base+uint64(i))
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		_, err = cluster.New(ccfg)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("cluster.New seed %d: %w", base+uint64(i), err)
		}
		buildAllocs += ms1.Mallocs - ms0.Mallocs
		buildMs[i] = ms(d)
		loopMs[i] = own.runMs[i] - buildMs[i]
	}

	n := float64(runs)
	perRun := func(f func(r *core.RunResult) float64) float64 {
		var s float64
		for i := range own.results {
			s += f(&own.results[i])
		}
		return s / n
	}
	perTap := func(f func(t *tapStats) float64) float64 {
		var s float64
		for i := range on.taps {
			s += f(&on.taps[i])
		}
		return s / n
	}
	var ownSum float64
	for _, v := range own.withTapMs {
		ownSum += v
	}
	rebuilt := perRun(func(r *core.RunResult) float64 { return float64(r.BlocksRebuilt) })
	attempts := rebuilt + perRun(func(r *core.RunResult) float64 {
		return float64(r.RebuildRetries + r.Redirections + r.Resourcings + r.RebuildTimeouts + r.Hedges)
	})
	useful := 0.0
	if attempts > 0 {
		useful = rebuilt / attempts
	}
	p50 := median(t.seedMs)
	nTimed := float64(t.runs)
	first := own.results[0]

	ls := []metric{
		{"cluster.build_ms", "ms", median(buildMs)},
		{"cluster.build_allocs", "count", float64(buildAllocs) / n},
		{"cluster.build_share", "ratio", median(buildMs) / p50},
		{"cluster.disks", "count", float64(first.Disks)},
		{"cluster.groups", "count", float64(cfg.NumGroups())},
		{"core.loop_ms", "ms", median(loopMs)},
		{"core.fold_overhead_pct", "%", 100 * (median(t.wall)*1000 - ownSum) / ownSum},
		{"core.scaling_eff_2w", "ratio", scaling},
		{"forensics.analyze_ms", "ms", perTap(func(t *tapStats) float64 { return ms(t.analyze) })},
		{"forensics.postmortems_per_run", "count", perTap(func(t *tapStats) float64 { return float64(len(t.report.Posts)) })},
		{"obs.tap_overhead_pct", "%", 100 * (median(on.withTapMs)/median(off.withTapMs) - 1)},
		{"obs.spans_per_run", "count", perTap(func(t *tapStats) float64 { return float64(t.spans) })},
		{"trace.events_per_run", "count", perTap(func(t *tapStats) float64 { return float64(t.events) })},
	}
	for _, m := range profiledModules {
		ls = append(ls, metric{m + ".cpu_share", "ratio", shares[m]})
	}
	count := func(name string, f func(r *core.RunResult) float64) metric {
		return metric{name, "count", perRun(f)}
	}
	ls = append(ls,
		metric{"runtime.gc_cpu_share", "ratio", gcCPUShare(t.before, t.after)},
		metric{"runtime.sched_wait_p99_us", "us", schedWaitP99us(t.before, t.after)},
		metric{"runtime.alloc_mb_per_run", "MB", float64(t.after.mem.TotalAlloc-t.before.mem.TotalAlloc) / (1 << 20) / nTimed},
		metric{"runtime.gc_cycles_per_run", "count", float64(t.after.mem.NumGC-t.before.mem.NumGC) / nTimed},
		count("recovery.blocks_rebuilt", func(r *core.RunResult) float64 { return float64(r.BlocksRebuilt) }),
		count("recovery.redirections", func(r *core.RunResult) float64 { return float64(r.Redirections) }),
		count("recovery.resourcings", func(r *core.RunResult) float64 { return float64(r.Resourcings) }),
		count("recovery.retries", func(r *core.RunResult) float64 { return float64(r.RebuildRetries) }),
		count("recovery.hedges", func(r *core.RunResult) float64 { return float64(r.Hedges) }),
		count("recovery.hedge_wins", func(r *core.RunResult) float64 { return float64(r.HedgeWins) }),
		count("recovery.timeouts", func(r *core.RunResult) float64 { return float64(r.RebuildTimeouts) }),
		count("recovery.parked", func(r *core.RunResult) float64 { return float64(r.ParkedTransfers) }),
		metric{"recovery.disk_hours", "h", perRun(func(r *core.RunResult) float64 { return r.RecoveryDiskHours })},
		metric{"recovery.useful_ratio", "ratio", useful},
		count("faults.disk_failures", func(r *core.RunResult) float64 { return float64(r.DiskFailures) }),
		count("faults.lse_injected", func(r *core.RunResult) float64 { return float64(r.LSEInjected) }),
		count("faults.bursts", func(r *core.RunResult) float64 { return float64(r.Bursts) }),
		count("faults.failslow_onsets", func(r *core.RunResult) float64 { return float64(r.FailSlowOnsets) }),
		count("faults.transient", func(r *core.RunResult) float64 { return float64(r.TransientFaults) }),
		count("topology.partitions", func(r *core.RunResult) float64 { return float64(r.Partitions) }),
		count("topology.cross_rack_transfers", func(r *core.RunResult) float64 { return float64(r.CrossRackTransfers) }),
		count("topology.false_dead_disks", func(r *core.RunResult) float64 { return float64(r.FalseDeadDisks) }),
		count("workload.degraded_reads", func(r *core.RunResult) float64 { return float64(r.DegradedReads) }),
		count("workload.throttle_steps", func(r *core.RunResult) float64 { return float64(r.ThrottleSteps) }),
		count("workload.demand_bursts", func(r *core.RunResult) float64 { return float64(r.DemandBursts) }),
	)
	var lossy []string
	for i, r := range own.results {
		if r.DataLoss {
			lossy = append(lossy, fmt.Sprint(base+uint64(i)))
		}
	}
	fmt.Fprintf(out, "# lossy seeds: %d of %d: %s\n", len(lossy), runs, strings.Join(lossy[:min(len(lossy), 12)], " "))
	fmt.Fprintf(out, "# traced: CPU profile over the timed rounds; passes over %d seeds with taps=%v, taps=%v, cluster.New alone; core.scaling_eff_2w is unsteady on shared cores\n",
		runs, w.taps, !w.taps)
	return ls, nil
}
