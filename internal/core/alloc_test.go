package core

import (
	"testing"

	"repro/internal/disk"
)

// TestSingleRunAllocCeiling is the allocation-regression gate for the full
// single-run path — kernel, cluster, placement, recovery, replacement and
// metrics together — at the benchmark configuration BENCH_*.json records
// (50 TB user data, 10 GB groups, FARM engine). The ceiling was the
// BENCH_1 baseline (8857 allocs/op) through PR 9; PR 6's arena event
// queue and lazy group materialization plus PR 10's discard metric sinks
// held it at the BENCH_6 level (7430); the single per-run counter set
// (no counter handles, no simulator-level discard sink) brought
// BenchmarkSingleRunFARM to 7412, the ceiling now — any change that
// drifts allocations back above it fails `go test`, not just a
// benchmark eyeball.
func TestSingleRunAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const ceiling = 7412 // BenchmarkSingleRunFARM allocs/op with one per-run counter set
	cfg := DefaultConfig()
	cfg.TotalDataBytes = 50 * disk.TB
	cfg.GroupBytes = 10 * disk.GB
	cfg.UseFARM = true
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	run := func() {
		if _, err := s.Run(seed); err != nil {
			t.Fatal(err)
		}
		seed++
	}
	// The BENCH_* figures are steady-state averages over hundreds of
	// runs; warm the simulator past its allocation high-water mark
	// (lazy group maps, event arena chunks) before measuring, or the
	// first runs' one-time growth lands in the average.
	for i := 0; i < 30; i++ {
		run()
	}
	if n := testing.AllocsPerRun(20, run); n > ceiling {
		t.Fatalf("full single run allocates %.0f times, ceiling %d", n, ceiling)
	}
}
