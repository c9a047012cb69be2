package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tinyPlan runs every phase of an invocation on a handful of seeds.
var tinyPlan = plan{rounds: 2, runs: 6, checks: 3, setups: 1, warmups: 1}

func TestWorkloadsMatchContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryMetricPrints runs each workload at tiny size in both modes and
// requires the closing JSON line to carry exactly the contract's metrics
// with their units, each also printed in the table above it.
func TestEveryMetricPrints(t *testing.T) {
	c := readContract(t)
	cases := []struct {
		workload string
		traced   bool
		want     []struct{ Name, Unit string }
	}{
		{"paper-farm", false, c.EndToEnd},
		{"paper-spare", false, c.EndToEnd},
		{"storm-observed", false, c.EndToEnd},
		{"paper-farm", true, c.PerLayer},
		{"storm-observed", true, c.PerLayer},
	}
	for _, tc := range cases {
		w, ok := lookupWorkload(tc.workload)
		if !ok {
			t.Fatalf("unknown workload %s", tc.workload)
		}
		var out bytes.Buffer
		o, err := bench(&out, w, 1, tinyPlan, tc.traced)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", tc.workload, tc.traced, err)
		}
		line, err := resultJSON(o)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
				tc.workload, tc.traced, res.Correct, res.Attempted, res.Failed, out.String())
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("%s traced=%v: %d metrics, contract has %d", tc.workload, tc.traced, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", tc.workload, tc.traced, m.Name, got, m.Unit)
			}
			if !strings.Contains(out.String(), "\n"+m.Name+" ") || !strings.Contains(out.String(), " "+m.Unit+"\n") {
				t.Errorf("%s traced=%v: %s not printed with its unit", tc.workload, tc.traced, m.Name)
			}
		}
		if !tc.traced && res.Metrics["setup_s"].Value <= 0 {
			t.Errorf("%s: setup_s %v", tc.workload, res.Metrics["setup_s"].Value)
		}
	}
}

// TestIdentityCheckTrips shows the identity check is not vacuous: two
// different seed sets fold to different Results and are reported.
func TestIdentityCheckTrips(t *testing.T) {
	cfg := paperConfig(false)
	a := runCampaign(cfg, false, 1, 3, 1)
	b := runCampaign(cfg, false, 2, 3, 2)
	same := runCampaign(cfg, false, 1, 3, 2)
	for _, c := range []campaignRun{a, b, same} {
		if c.err != nil {
			t.Fatal(c.err)
		}
	}
	if err := sameResult(a.res, b.res); err == nil {
		t.Error("seeds 1..3 and 2..4 passed the identity check")
	}
	if err := sameResult(a.res, same.res); err != nil {
		t.Errorf("seeds 1..3 at 1 and 2 workers: %v", err)
	}
}

// TestClusterConfigMatchesRun checks the restated cluster.Config builds
// the fleet a run of the same seed reports.
func TestClusterConfigMatchesRun(t *testing.T) {
	for _, w := range workloads {
		cfg := w.config()
		ccfg, err := clusterConfig(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(7)
		if err != nil {
			t.Fatal(err)
		}
		if cl.NumDisks() != res.Disks || cl.GroupCount() != cfg.NumGroups() {
			t.Errorf("%s: rebuilt cluster has %d disks, %d groups; the run had %d disks, %d groups",
				w.name, cl.NumDisks(), cl.GroupCount(), res.Disks, cfg.NumGroups())
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if p, v, beyond := tail(xs, 10); p != 90 || v != 90 || beyond != 10 {
		t.Errorf("tail of 1..100 = p%d %v with %d beyond, want p90 90 with 10", p, v, beyond)
	}
	if p, v, beyond := tail(xs[:25], 10); p != 60 || v != 90 || beyond != 10 {
		t.Errorf("tail of 76..100 = p%d %v with %d beyond, want p60 90 with 10", p, v, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cluster.(*Cluster).Eligible":   "cluster",
		"repro/internal/recovery.(*base).track":        "recovery",
		"repro/internal/sim.(*Engine).RunUntil.func1":  "sim",
		"runtime.mallocgc":                             "runtime",
		"runtime/internal/atomic.Load":                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sort.Slice":                       "",
		"main.runSeed":                     "",
		"repro/internal/forensics.Analyze": "forensics",
		"repro/internal/workload.(*Foreground).effDuration": "workload",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for the profile fixture.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestCPUSharesFixture attributes a fixed profile: each sample's value
// goes to the module of its leaf frame only, an inlined leaf wins over
// the function it was inlined into, and frames outside the simulator
// and runtime count toward the total but no module.
func TestCPUSharesFixture(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/cluster.(*Cluster).Eligible",   // fn 1
		"runtime.mallocgc",                             // fn 2
		"repro/internal/recovery.(*base).track",        // fn 3
		"internal/runtime/maps.(*Map).getWithKeySmall", // fn 4
		"sort.Slice",                            // fn 5
		"repro/internal/sim.(*Engine).RunUntil", // fn 6
	}
	var prof pb
	prof = prof.bytes(1, pb(nil).varint(1, 1).varint(2, 2)) // samples/count
	prof = prof.bytes(1, pb(nil).varint(1, 3).varint(2, 4)) // cpu/nanoseconds
	sample := func(ns uint64, locs ...uint64) {
		s := pb(nil).bytes(1, packed(locs...)).bytes(2, packed(1, ns))
		prof = prof.bytes(2, s)
	}
	sample(10e6, 1, 5)                                                                // cluster leaf, sim caller
	sample(20e6, 2)                                                                   // runtime inlined into recovery
	prof = prof.bytes(2, pb(nil).varint(1, 3).varint(1, 2).bytes(2, packed(1, 30e6))) // unpacked ids
	sample(40e6, 4)                                                                   // standard library
	line := func(fn uint64) []byte { return pb(nil).varint(1, fn) }
	prof = prof.bytes(4, pb(nil).varint(1, 1).bytes(4, line(1)))
	prof = prof.bytes(4, pb(nil).varint(1, 2).bytes(4, line(2)).bytes(4, line(3)))
	prof = prof.bytes(4, pb(nil).varint(1, 3).bytes(4, line(4)))
	prof = prof.bytes(4, pb(nil).varint(1, 4).bytes(4, line(5)))
	prof = prof.bytes(4, pb(nil).varint(1, 5).bytes(4, line(6)))
	for id := uint64(1); id <= 6; id++ {
		prof = prof.bytes(5, pb(nil).varint(1, id).varint(2, id+4))
	}
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	shares, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cluster": 0.1, "runtime": 0.5}
	for _, m := range profiledModules {
		if math.Abs(shares[m]-want[m]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", m, shares[m], want[m])
		}
	}
	if _, err := cpuShares(gz.Bytes()[:len(gz.Bytes())/2]); err == nil {
		t.Error("a truncated profile parsed")
	}
}
