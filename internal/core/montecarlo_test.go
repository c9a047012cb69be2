package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
)

func TestResultAddAndFinish(t *testing.T) {
	var r Result
	runs := []RunResult{
		{RunCounters: obs.RunCounters{LostGroups: 3, DiskFailures: 10, BlocksRebuilt: 100, Redirections: 1},
			DataLoss: true, MeanWindowHours: 2, Disks: 50},
		{RunCounters: obs.RunCounters{LostGroups: 0, DiskFailures: 8, BlocksRebuilt: 80},
			DataLoss: false, MeanWindowHours: 1, Disks: 50},
		{RunCounters: obs.RunCounters{LostGroups: 0, DiskFailures: 12, BlocksRebuilt: 0},
			DataLoss: false, Disks: 50},
	}
	for i := range runs {
		r.add(&runs[i])
	}
	r.finish()
	if r.Runs != 3 {
		t.Fatalf("Runs = %d", r.Runs)
	}
	if math.Abs(r.PLoss-1.0/3) > 1e-12 {
		t.Fatalf("PLoss = %v", r.PLoss)
	}
	if r.PLossLo >= r.PLoss || r.PLossHi <= r.PLoss {
		t.Fatalf("CI [%v, %v] excludes estimate %v", r.PLossLo, r.PLossHi, r.PLoss)
	}
	if math.Abs(r.RedirectionRate-1.0/3) > 1e-12 {
		t.Fatalf("RedirectionRate = %v", r.RedirectionRate)
	}
	if r.DiskFailures.Mean() != 10 {
		t.Fatalf("DiskFailures mean = %v", r.DiskFailures.Mean())
	}
	// Window stats only include runs that rebuilt something.
	if r.WindowHours.N() != 2 || math.Abs(r.WindowHours.Mean()-1.5) > 1e-12 {
		t.Fatalf("WindowHours = %v over %d runs", r.WindowHours.Mean(), r.WindowHours.N())
	}
	if r.Disks != 50 {
		t.Fatalf("Disks = %d", r.Disks)
	}
}

func TestFinishEmpty(t *testing.T) {
	var r Result
	r.finish()
	if r.PLoss != 0 || r.RedirectionRate != 0 {
		t.Fatal("empty result not clean")
	}
}

func TestMonteCarloWorkerClamp(t *testing.T) {
	cfg := smallConfig()
	// More workers than runs must not deadlock or panic.
	res, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 2, Workers: 16, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 {
		t.Fatalf("Runs = %d", res.Runs)
	}
}

func TestRecoveryDiskHoursPositive(t *testing.T) {
	simr, err := NewSimulator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(21)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRebuilt > 0 && res.RecoveryDiskHours <= 0 {
		t.Fatal("rebuilds happened but no recovery disk-hours recorded")
	}
	// Two disks per transfer: disk-hours = 2 × transfers × duration.
	perBlock := float64(res.BlocksRebuilt) * 2
	if res.RecoveryDiskHours > perBlock { // duration < 1 h per block here
		t.Fatalf("disk-hours %v implausibly large for %d rebuilds",
			res.RecoveryDiskHours, res.BlocksRebuilt)
	}
}

func TestVintageScaleIncreasesFailures(t *testing.T) {
	base := smallConfig()
	fast := base
	fast.VintageScale = 3
	const runs = 8
	a, err := MonteCarlo(base, MonteCarloOptions{Runs: runs, BaseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(fast, MonteCarloOptions{Runs: runs, BaseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.DiskFailures.Mean() <= a.DiskFailures.Mean() {
		t.Fatalf("tripled vintage produced %v failures vs %v",
			b.DiskFailures.Mean(), a.DiskFailures.Mean())
	}
}

func TestLatencyIncreasesWindow(t *testing.T) {
	base := smallConfig()
	slow := base
	slow.DetectionLatencyHours = 2
	a, err := MonteCarlo(base, MonteCarloOptions{Runs: 5, BaseSeed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(slow, MonteCarloOptions{Runs: 5, BaseSeed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if b.WindowHours.Mean() < a.WindowHours.Mean()+1.5 {
		t.Fatalf("2h latency lifted window only from %v to %v",
			a.WindowHours.Mean(), b.WindowHours.Mean())
	}
}

// TestMonteCarloWorkersByteIdentical pins the cross-worker determinism
// contract on the lazy-group path: a hostile campaign (tripled failure
// rates plus the full fault storm, so group records churn through the
// materialize/recycle pool constantly) must aggregate to a byte-identical
// Result whether runs execute on one worker or race across four. The
// ordered ring fold in MonteCarlo makes worker count invisible; this test
// (run under -race in CI) is the gate that keeps it so.
func TestMonteCarloWorkersByteIdentical(t *testing.T) {
	cfg := stormConfig()
	cfg.VintageScale = 3
	const runs = 6
	serial, err := MonteCarlo(cfg, MonteCarloOptions{Runs: runs, BaseSeed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MonteCarlo(cfg, MonteCarloOptions{Runs: runs, BaseSeed: 17, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", serial) != fmt.Sprintf("%+v", parallel) {
		t.Fatalf("worker count changed the aggregate:\n1 worker:  %+v\n4 workers: %+v",
			serial, parallel)
	}
}
