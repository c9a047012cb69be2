package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// plan sizes one invocation. Every field follows from the workload and
// --seconds alone, so two invocations with the same flags do the same
// work.
type plan struct {
	rounds  int // timed campaigns over the same seeds; timings are medians over them
	runs    int // seeds per timed campaign
	checks  int // seeds per identity-check campaign
	setups  int // repeated set-ups; setup_s is their median
	warmups int // untimed runs per set-up: about half a second's worth
}

// minRuns keeps at least ten seeds beyond the median for run_ms_tail.
const minRuns = 20

func newPlan(w workloadSpec, seconds int) plan {
	const rounds = 5
	runs := max(minRuns, w.runsPer10s*seconds/(10*rounds))
	return plan{rounds: rounds, runs: runs, checks: max(minRuns, runs/4), setups: 7, warmups: max(3, w.runsPer10s/20)}
}

// tapStats is what the taps saw in one run.
type tapStats struct {
	events, spans int
	report        *forensics.Report
	analyze       time.Duration
}

// runSeed runs one trajectory the way a MonteCarlo worker does: with
// taps, under a private registry, trace recorder and span log, followed
// by forensics.Analyze.
func runSeed(cfg core.Config, seed uint64, taps bool) (core.RunResult, tapStats, error) {
	var rec *trace.Recorder
	var spans *obs.SpanLog
	if taps {
		rec = trace.NewRecorder()
		spans = obs.NewSpanLog()
		cfg.Hook = rec.Record
		cfg.Obs = &obs.RunObserver{Registry: obs.NewRegistry(), Spans: spans}
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return core.RunResult{}, tapStats{}, err
	}
	res, err := sim.Run(seed)
	if err != nil || !taps {
		return res, tapStats{}, err
	}
	t0 := time.Now()
	rep := forensics.Analyze(rec.Events(), spans.Spans(), forensics.Context{
		OversubscriptionRatio: cfg.Topology.OversubscriptionRatio,
		MaxResourcings:        cfg.Faults.MaxResourcings,
	})
	return res, tapStats{
		events:  rec.Len(),
		spans:   spans.Len(),
		report:  rep,
		analyze: time.Since(t0),
	}, nil
}

// campaignRun is one core.MonteCarlo call and its wall time. perRunMs
// holds the gaps between successive in-order fold callbacks; at one
// worker each gap is one seed's run, taps and fold.
type campaignRun struct {
	res      core.Result
	wall     time.Duration
	perRunMs []float64
	err      error
}

func runCampaign(cfg core.Config, taps bool, base uint64, runs, workers int) campaignRun {
	opts := core.MonteCarloOptions{Runs: runs, Workers: workers, BaseSeed: base}
	if taps {
		opts.Telemetry = obs.NewCampaign()
		opts.Forensics = forensics.NewAggregate()
	}
	var c campaignRun
	c.perRunMs = make([]float64, 0, runs)
	start := time.Now()
	last := start
	opts.Progress = func(done, total int) {
		now := time.Now()
		c.perRunMs = append(c.perRunMs, float64(now.Sub(last))/float64(time.Millisecond))
		last = now
	}
	c.res, c.err = core.MonteCarlo(cfg, opts)
	c.wall = time.Since(start)
	return c
}

// timedPhase is the measured part of an invocation: p.rounds campaigns
// over the same seeds at one worker. Repeating the seeds, rather than
// running more of them, keeps the work identical from round to round,
// so a median over rounds rejects a slow window of the machine.
type timedPhase struct {
	res           core.Result // the first round's Result
	wall, cpu     []float64   // seconds per round: wall clock, process CPU
	seedMs        []float64   // per seed, the median over rounds of its run time
	runs          int         // runs completed over all rounds
	before, after processSample
}

func runTimed(cfg core.Config, taps bool, base uint64, p plan, o *outcome) timedPhase {
	var t timedPhase
	bySeed := make([][]float64, p.runs)
	runtime.GC()
	t.before = sampleProcess()
	for r := 0; r < p.rounds; r++ {
		cpu0 := processCPU()
		c := runCampaign(cfg, taps, base, p.runs, 1)
		t.cpu = append(t.cpu, (processCPU() - cpu0).Seconds())
		t.wall = append(t.wall, c.wall.Seconds())
		o.attempted += p.runs
		t.runs += len(c.perRunMs)
		for i, v := range c.perRunMs {
			bySeed[i] = append(bySeed[i], v)
		}
		if c.err != nil {
			o.fail(p.runs-len(c.perRunMs), "timed round %d: %v", r, c.err)
		} else if err := checkResult(c.res, p.runs); err != nil {
			o.fail(p.runs, "timed round %d: %v", r, err)
		} else if r == 0 {
			t.res = c.res
		} else if err := sameResult(t.res, c.res); err != nil {
			o.fail(p.runs, "timed round %d does not repeat round 0: %v", r, err)
		}
	}
	t.after = sampleProcess()
	for _, v := range bySeed {
		if len(v) > 0 {
			t.seedMs = append(t.seedMs, median(v))
		}
	}
	return t
}

// sameResult is the identity contract: two campaigns over the same
// seeds fold to deeply equal Results, unexported accumulators included.
func sameResult(a, b core.Result) error {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	return fmt.Errorf("results differ: runs %d/%d, PLoss %v/%v, digest %s/%s",
		a.Runs, b.Runs, a.PLoss, b.PLoss, digest(a).hash, digest(b).hash)
}

// wilsonSlack is the rounding allowed at the ends of the Wilson
// interval: metrics.Proportion.Wilson95 computes center±half in
// floating point, so when every run loses, its upper end reads
// 0.9999999999999999 below PLoss = 1.
const wilsonSlack = 1e-12

// checkResult holds the invariants every folded campaign keeps.
func checkResult(r core.Result, runs int) error {
	switch {
	case r.Runs != runs || r.DiskFailures.N() != runs:
		return fmt.Errorf("folded %d runs, want %d", r.Runs, runs)
	case r.Disks <= 0:
		return fmt.Errorf("no disks")
	case !(0 <= r.PLossLo && r.PLossLo <= r.PLoss+wilsonSlack && r.PLoss <= r.PLossHi+wilsonSlack && r.PLossHi <= 1):
		return fmt.Errorf("PLoss %v outside its interval [%v, %v]", r.PLoss, r.PLossLo, r.PLossHi)
	}
	return nil
}

// resultDigest names a folded Result: the paper's answer, three sums a
// reader can check by eye, and a hash of every field.
type resultDigest struct {
	pLoss                         float64
	failures, rebuilt, lostGroups int64
	hash                          string
}

func digest(r core.Result) resultDigest {
	sum := func(n int, mean float64) int64 { return int64(math.Round(float64(n) * mean)) }
	return resultDigest{
		pLoss:      r.PLoss,
		failures:   sum(r.DiskFailures.N(), r.DiskFailures.Mean()),
		rebuilt:    sum(r.BlocksRebuilt.N(), r.BlocksRebuilt.Mean()),
		lostGroups: sum(r.LostGroups.N(), r.LostGroups.Mean()),
		hash:       fnv64(fmt.Sprintf("%+v", r)),
	}
}

func (d resultDigest) String() string {
	return fmt.Sprintf("ploss=%v disk_failures=%d blocks_rebuilt=%d lost_groups=%d hash=%s",
		d.pLoss, d.failures, d.rebuilt, d.lostGroups, d.hash)
}

func fnv64(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// processSample is the process-wide state the timed phase is measured
// between.
type processSample struct {
	nivcsw     int64
	maxRSSKB   int64
	runqueueNs int64
	steal      float64
	mem        runtime.MemStats
	rt         []metrics.Sample
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func sampleProcess() processSample {
	var s processSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.nivcsw = ru.Nivcsw
		s.maxRSSKB = ru.Maxrss
	}
	s.runqueueNs = runqueueWaitNs()
	s.steal = stealSeconds()
	runtime.ReadMemStats(&s.mem)
	s.rt = make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	return s
}

// processCPU is the user plus system CPU time the process has used,
// GC included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUShare is the GC's share of the CPU the process used between a
// and b, idle time excluded.
func gcCPUShare(a, b processSample) float64 {
	d := func(i int) float64 { return b.rt[i].Value.Float64() - a.rt[i].Value.Float64() }
	busy := d(2) - d(1)
	if busy <= 0 {
		return 0
	}
	return d(0) / busy
}

// schedWaitP99us is the 99th percentile of the Go scheduler's
// runnable-to-running latency between a and b, from the runtime's
// histogram, interpolated linearly inside the bucket that holds it.
func schedWaitP99us(a, b processSample) float64 {
	ha, hb := a.rt[3].Value.Float64Histogram(), b.rt[3].Value.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		delta[i] = hb.Counts[i] - ha.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := 0.99 * float64(total)
	var cum uint64
	for i, c := range delta {
		if float64(cum+c) >= target {
			lo, hi := hb.Buckets[i], hb.Buckets[i+1]
			switch {
			case math.IsInf(hi, 1):
				return lo * 1e6
			case math.IsInf(lo, -1):
				return hi * 1e6
			}
			return (lo + (hi-lo)*(target-float64(cum))/float64(c)) * 1e6
		}
		cum += c
	}
	return 0
}

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile of xs that has at least
// minBeyond samples above it (nearest rank), with the count beyond it.
func tail(xs []float64, minBeyond int) (pct int, value float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for p := 99; p >= 50; p-- {
		rank := (p*n + 99) / 100 // ceil(p/100 * n)
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, s[rank-1], n - rank
		}
	}
	rank := (n + 1) / 2
	return 50, s[rank-1], n - rank
}
