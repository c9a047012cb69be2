package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/workload"
)

// forensicsSmokeConfig restates the CI forensics-smoke invocation
//
//	farmtrace -spare -vintage 6 -replace 0.04 \
//	  -racks 10 -rackaware -uplink 1000 -oversub 4 -falsedead 24 \
//	  -switchfails 2 -powerfails 4 -partitions 50 \
//	  -load 0.3 -bursts 1 -burstshare 0.25 -throttle aimd -floor 8 -maxrate 32 \
//	  -seed 3
//
// as a Config: a spare-engine network storm with foreground demand and
// an adaptive throttle that loses data.
func forensicsSmokeConfig() Config {
	cfg := DefaultConfig()
	cfg.TotalDataBytes = 50 * disk.TB
	cfg.GroupBytes = 10 * disk.GB
	cfg.UseFARM = false
	cfg.DetectionLatencyHours = 30.0 / 3600
	cfg.SmartLeadHours = 24
	cfg.ReplaceTrigger = 0.04
	cfg.VintageScale = 6
	cfg.Topology = topology.Config{
		Racks:                 10,
		RackAware:             true,
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
	cfg.Demand = workload.DemandConfig{BaseShare: 0.3, BurstsPerDay: 1, BurstShare: 0.25}
	cfg.Throttle = workload.ThrottleConfig{Policy: workload.PolicyAIMD, FloorMBps: 8, MaxMBps: 32}
	return cfg
}

// TestRegistryGolden pins the metrics exposition of one everything-on
// run: the registry JSONL of the forensics-smoke storm (seed 3) with
// spans and the sampler attached. Regenerate with
// `go test ./internal/core -run TestRegistryGolden -update` only when an
// intentional change to the metric catalogue is made.
func TestRegistryGolden(t *testing.T) {
	cfg := forensicsSmokeConfig()
	ob := &obs.RunObserver{
		Registry:         obs.NewRegistry(),
		Spans:            obs.NewSpanLog(),
		Series:           obs.NewSeries(),
		SampleEveryHours: 24,
	}
	cfg.Obs = ob
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DataLoss {
		t.Fatal("the forensics-smoke storm no longer loses data; the golden no longer covers the loss paths")
	}
	var buf bytes.Buffer
	if err := ob.Registry.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	path := filepath.Join("testdata", "registry_forensics_smoke.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) != got {
		wl := strings.Split(string(want), "\n")
		gl := strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("registry drift at line %d:\n want %s\n got  %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("registry drift: %d lines vs %d", len(wl), len(gl))
	}
}
