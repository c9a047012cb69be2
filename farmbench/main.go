// Command farmbench is the repository's benchmark: one fixed-seed Monte
// Carlo campaign of a named workload at one worker, timed end to end,
// with the simulator's identity contracts checked in the same
// invocation. With --trace 1 it reports per-layer numbers instead,
// timed from outside the layers and sampled with a CPU profile.
//
//	farmbench --workload storm-observed --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads and how to read the numbers.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

type metric struct {
	name, unit string
	value      float64
}

// outcome is what one invocation reports.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           []metric
}

func (o *outcome) fail(runs int, format string, args ...any) {
	o.failed += runs
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-farm, paper-spare or storm-observed")
	seed := flag.Uint64("seed", 1, "benchmark seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "nominal length of the timed campaign; sizes the seed set")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	replay := flag.Uint64("replay", 0, "run only this seed of the workload and print its result and postmortems")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *replay != 0 {
		if err := replaySeed(os.Stdout, w, *replay); err != nil {
			fmt.Fprintln(os.Stderr, "farmbench:", err)
			os.Exit(1)
		}
		return
	}
	// Everything but the 2-worker check runs on one P: one worker needs
	// one core, and the GC then takes its share of that core instead of
	// racing the worker for the second one, whose availability on a
	// shared machine comes and goes.
	runtime.GOMAXPROCS(1)
	o, err := bench(os.Stdout, w, *seed, newPlan(w, *seconds), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "farmbench:", err)
		os.Exit(1)
	}
	line, err := resultJSON(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "farmbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// seedBases derives the invocation's two seed sets from the benchmark
// seed. The timed campaign always runs the same seeds: a storm seed
// costs up to ~20x another, so a seed-dependent timed set would move
// every timing by more than any bound. The identity checks run on fresh
// seeds per benchmark seed, so repeated invocations widen their cover.
func seedBases(seed uint64) (timed, check uint64) {
	return 1, 1_000_000 + seed*10_000
}

func bench(out io.Writer, w workloadSpec, seed uint64, p plan, traced bool) (outcome, error) {
	var o outcome
	timedBase, checkBase := seedBases(seed)
	fmt.Fprintf(out, "# machine: %s\n", fingerprint())
	fmt.Fprintf(out, "# workload %s: %d rounds of timed seeds %d..%d at 1 worker; check seeds %d..%d\n",
		w.name, p.rounds, timedBase, timedBase+uint64(p.runs)-1, checkBase, checkBase+uint64(p.checks)-1)

	cfg, setupS, err := setUp(w, p, timedBase, &o)
	if err != nil {
		return o, err
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return o, err
		}
	}
	t := runTimed(cfg, w.taps, timedBase, p, &o)
	if traced {
		pprof.StopCPUProfile()
	}
	if t.runs == 0 {
		return o, fmt.Errorf("no timed run completed: %v", o.problems)
	}
	fmt.Fprintf(out, "# digest %s: runs=%d %s\n", w.name, t.res.Runs, digest(t.res))
	scaling := identityChecks(out, w, cfg, checkBase, p.checks, &o)

	pct, tailMs, beyond := tail(t.seedMs, 10)
	fmt.Fprintf(out, "# timed: round walls %s s; tail is p%d of %d seeds, %d beyond it\n",
		fmtList(t.wall), pct, len(t.seedMs), beyond)
	fmt.Fprintf(out, "# slowest seeds: %s\n", slowest(t.seedMs, timedBase, 3))
	fmt.Fprintf(out, "# noise: sched_wait_p99_us=%.1f runqueue_wait_ms=%.1f involuntary_switches=%d machine_steal_s=%.2f\n",
		schedWaitP99us(t.before, t.after), float64(t.after.runqueueNs-t.before.runqueueNs)/1e6,
		t.after.nivcsw-t.before.nivcsw, t.after.steal-t.before.steal)
	if traced {
		lm, err := layerMetrics(out, w, cfg, timedBase, p.runs, t, prof.Bytes(), scaling)
		if err != nil {
			o.fail(p.runs, "traced passes: %v", err)
		}
		o.metrics = lm
	} else {
		o.metrics = []metric{
			{"runs_per_s", "1/s", float64(p.runs) / median(t.wall)},
			{"run_ms_p50", "ms", median(t.seedMs)},
			{"run_ms_tail", "ms", tailMs},
			{"cpu_ms_per_run", "ms", 1000 * median(t.cpu) / float64(p.runs)},
			{"allocs_per_run", "count", float64(t.after.mem.Mallocs-t.before.mem.Mallocs) / float64(t.runs)},
			{"peak_rss_mb", "MB", float64(t.after.maxRSSKB) / 1024},
			{"setup_s", "s", median(setupS)},
			{"ok_run_share", "ratio", float64(o.attempted-o.failed) / float64(o.attempted)},
		}
	}
	fmt.Fprintf(out, "# failed_run_share: %g (%d of %d runs)\n",
		float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	for _, pr := range o.problems {
		fmt.Fprintf(out, "# FAILED: %s\n", pr)
	}
	for _, m := range o.metrics {
		fmt.Fprintf(out, "%-30s %16.6f %s\n", m.name, m.value, m.unit)
	}
	return o, nil
}

// slowest names the k seeds with the highest run times, for --replay.
func slowest(seedMs []float64, base uint64, k int) string {
	idx := make([]int, len(seedMs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return seedMs[idx[a]] > seedMs[idx[b]] })
	var s []string
	for _, i := range idx[:min(k, len(idx))] {
		s = append(s, fmt.Sprintf("%d (%.1f ms)", base+uint64(i), seedMs[i]))
	}
	return strings.Join(s, ", ")
}

// replaySeed runs one seed of the workload on its own: timed with the
// taps off, then again with them on for its causal postmortems, printed
// as JSON lines.
func replaySeed(out io.Writer, w workloadSpec, seed uint64) error {
	cfg := w.config()
	t0 := time.Now()
	res, _, err := runSeed(cfg, seed, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# replay %s seed %d: %.3f ms, taps off\n", w.name, seed, ms(time.Since(t0)))
	fmt.Fprintf(out, "# data_loss=%v lost_groups=%d disk_failures=%d blocks_rebuilt=%d redirections=%d max_window_h=%.3f\n",
		res.DataLoss, res.LostGroups, res.DiskFailures, res.BlocksRebuilt, res.Redirections, res.MaxWindowHours)
	_, ts, err := runSeed(cfg, seed, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# %d trace events, %d spans, %d postmortems:\n", ts.events, ts.spans, len(ts.report.Posts))
	return ts.report.WriteJSONL(out)
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// setUp builds the workload's config, validates it through
// NewSimulator and runs the untimed warm-up seeds, p.setups times over.
// The returned durations are each round's seconds.
func setUp(w workloadSpec, p plan, base uint64, o *outcome) (core.Config, []float64, error) {
	var cfg core.Config
	secs := make([]float64, p.setups)
	for k := range secs {
		t0 := time.Now()
		cfg = w.config()
		if _, err := core.NewSimulator(cfg); err != nil {
			return cfg, nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		for i := 0; i < p.warmups; i++ {
			o.attempted++
			if _, _, err := runSeed(cfg, base+uint64(i), w.taps); err != nil {
				o.fail(1, "warm-up seed %d: %v", base+uint64(i), err)
			}
		}
		secs[k] = time.Since(t0).Seconds()
	}
	return cfg, secs, nil
}

// identityChecks re-runs the runs seeds from base at 1 and 2 workers and
// requires equal Results (the worker-count contract); with taps, the
// 1-worker campaign must also equal a taps-off one (the taps are
// read-only). It returns the 2-worker scaling efficiency of the pair.
func identityChecks(out io.Writer, w workloadSpec, cfg core.Config, base uint64, runs int, o *outcome) float64 {
	campaign := func(taps bool, workers int) campaignRun {
		o.attempted += runs
		c := runCampaign(cfg, taps, base, runs, workers)
		if c.err != nil {
			o.fail(runs, "%d-worker check campaign: %v", workers, c.err)
		} else if err := checkResult(c.res, runs); err != nil {
			o.fail(runs, "%d-worker check campaign: %v", workers, err)
		}
		return c
	}
	report := func(what string, a, b campaignRun) {
		if a.err != nil || b.err != nil {
			return
		}
		if err := sameResult(a.res, b.res); err != nil {
			o.fail(runs, "%s: %v", what, err)
			return
		}
		fmt.Fprintf(out, "# check %s over %d seeds: equal\n", what, runs)
	}
	one := campaign(w.taps, 1)
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	two := campaign(w.taps, 2)
	runtime.GOMAXPROCS(procs)
	report("worker-count identity (1 vs 2 workers)", one, two)
	if w.taps {
		report("taps identity (taps on vs off)", one, campaign(false, 1))
	}
	if two.wall <= 0 {
		return 0
	}
	return one.wall.Seconds() / (2 * two.wall.Seconds())
}

// resultJSON renders the closing line. A metric that is not a finite
// number is an error: the line would not parse.
func resultJSON(o outcome) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.metrics))
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && len(o.problems) == 0, o.attempted, o.failed, ms})
	return string(b), err
}
