package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// registryCounters reads every counter of a registry through its JSONL
// exposition.
func registryCounters(t *testing.T, r *obs.Registry) map[obs.Name]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[obs.Name]uint64)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m struct {
			Name  string          `json:"name"`
			Type  string          `json:"type"`
			Value json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if m.Type != "counter" {
			continue
		}
		v, err := strconv.ParseUint(string(m.Value), 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		out[obs.Name(m.Name)] = v
	}
	return out
}

// publishedNames maps each RunCounters field to the registry counters
// Publish writes it to, found by publishing a distinct value per field.
// It fails unless every field reaches at least one counter and no
// counter carries two fields.
func publishedNames(t *testing.T) map[string][]obs.Name {
	t.Helper()
	var c obs.RunCounters
	v := reflect.ValueOf(&c).Elem()
	field := make(map[uint64]string)
	for i := 0; i < v.NumField(); i++ {
		val := uint64(i+1) * 1000003
		v.Field(i).SetInt(int64(val))
		field[val] = v.Type().Field(i).Name
	}
	reg := obs.NewRegistry()
	c.Publish(reg)
	names := make(map[string][]obs.Name)
	for n, val := range registryCounters(t, reg) { //farm:orderinvariant each name lands in its field's list; lists are sorted below
		f, ok := field[val]
		if !ok {
			t.Fatalf("Publish wrote %s = %d, which is no field's value", n, val)
		}
		names[f] = append(names[f], n)
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i).Name
		if len(names[f]) == 0 {
			t.Fatalf("Publish does not export RunCounters.%s", f)
		}
		sort.Slice(names[f], func(a, b int) bool { return names[f][a] < names[f][b] })
	}
	return names
}

// TestRunCountersMatchRegistry: the registry a run publishes agrees,
// counter for counter, with the RunCounters in its RunResult, and
// carries no counter that RunCounters does not. It runs both engines
// over the everything-on storm (latent errors, scrubbing, transient
// faults, bursts, fail-slow and stragglers, S.M.A.R.T. draining,
// replacement, a rack fabric with network faults, a bounded spare pool,
// foreground demand with an adaptive throttle, and drain, upgrade and
// growth maintenance) over several seeds.
func TestRunCountersMatchRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("storm runs are moderately expensive")
	}
	// The pairing each field was recorded under before RunCounters
	// existed, written out independently of Publish so a swapped or
	// renamed pairing fails here. A transient fault is a probed read that
	// failed transiently, so that one field carries two names.
	want := map[string][]obs.Name{
		"LostGroups":         {obs.MetricDataLossGroups},
		"DiskFailures":       {obs.MetricDiskFailures},
		"BlocksRebuilt":      {obs.MetricBlocksRebuilt},
		"Redirections":       {obs.MetricRedirections},
		"RebuildsDropped":    {obs.MetricRebuildsDropped},
		"SparesUsed":         {obs.MetricSparesUsed},
		"BatchesAdded":       {obs.MetricBatchesAdded},
		"DisksAdded":         {obs.MetricDisksAdded},
		"PredictedFailures":  {obs.MetricPredicted},
		"DrainedBlocks":      {obs.MetricDrainedBlocks},
		"LSEInjected":        {obs.MetricLSEInjected},
		"LSEDetected":        {obs.MetricLSEDetected},
		"ScrubFound":         {obs.MetricScrubFound},
		"ProbeReads":         {obs.MetricProbeReads},
		"ProbeLatent":        {obs.MetricProbeLatent},
		"RebuildRetries":     {obs.MetricRetries},
		"TransientFaults":    {obs.MetricProbeTransient, obs.MetricTransientFaults},
		"Resourcings":        {obs.MetricResourcings},
		"Bursts":             {obs.MetricBursts},
		"BurstKills":         {obs.MetricBurstKills},
		"QueuedSpareJobs":    {obs.MetricSpareWaits},
		"FailSlowOnsets":     {obs.MetricFailSlowOnsets},
		"FailSlowRecoveries": {obs.MetricFailSlowRecovers},
		"SlowBursts":         {obs.MetricSlowBursts},
		"SlowFlagged":        {obs.MetricSlowFlagged},
		"SlowEvicted":        {obs.MetricSlowEvicted},
		"Hedges":             {obs.MetricHedges},
		"HedgeWins":          {obs.MetricHedgeWins},
		"RebuildTimeouts":    {obs.MetricTimeouts},
		"SwitchFails":        {obs.MetricSwitchFails},
		"RackPowerEvents":    {obs.MetricRackPowerEvents},
		"Partitions":         {obs.MetricPartitions},
		"PartitionHeals":     {obs.MetricPartitionHeals},
		"FalseDeadRacks":     {obs.MetricFalseDeadRacks},
		"FalseDeadDisks":     {obs.MetricFalseDeadDisks},
		"ParkedTransfers":    {obs.MetricParkedTransfers},
		"CrossRackTransfers": {obs.MetricCrossRackTransfers},
		"CrossRackBytes":     {obs.MetricCrossRackBytes},
		"DemandBursts":       {obs.MetricDemandBursts},
		"DegradedReads":      {obs.MetricDegradedReads},
		"ThrottleSteps":      {obs.MetricThrottleSteps},
		"PlannedDrains":      {obs.MetricDrainsPlanned},
		"UpgradeWindows":     {obs.MetricUpgradeWins},
		"FencedParks":        {obs.MetricFencedParks},
		"GrowthBatches":      {obs.MetricGrowthBatches},
		"GrowthDisksAdded":   {obs.MetricGrowthDisks},
	}
	names := publishedNames(t)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Publish pairs fields with names\n got  %v\n want %v", names, want)
	}
	// Fields that stay zero in every run below, each with the reason; the
	// test fails if this list goes stale in either direction. Empty: the
	// storm drives every counter above zero in at least one run, so an
	// agreement never holds merely because both sides read zero.
	alwaysZero := map[string]string{}
	zero := make(map[string]bool)
	for f := range names {
		zero[f] = true
	}
	for _, farm := range []bool{true, false} {
		for _, seed := range []uint64{3, 11, 29} {
			cfg := forensicsStormConfig()
			cfg.UseFARM = farm
			cfg.Maintenance.GrowEveryHours = 4000
			cfg.Maintenance.GrowDisks = 4
			ob := &obs.RunObserver{Registry: obs.NewRegistry()}
			cfg.Obs = ob
			s, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			got := registryCounters(t, ob.Registry)
			rv := reflect.ValueOf(res.RunCounters)
			published := 0
			for i := 0; i < rv.NumField(); i++ {
				f := rv.Type().Field(i).Name
				want := rv.Field(i).Int()
				if want != 0 {
					zero[f] = false
				}
				for _, n := range names[f] {
					published++
					if v, ok := got[n]; !ok || int64(v) != want {
						t.Errorf("farm=%v seed %d: %s = %d (present %v), RunCounters.%s = %d",
							farm, seed, n, v, ok, f, want)
					}
				}
			}
			if published != len(got) {
				t.Errorf("farm=%v seed %d: registry holds %d counters, RunCounters publishes %d",
					farm, seed, len(got), published)
			}
		}
	}
	for f, z := range zero { //farm:orderinvariant each field is checked on its own
		if _, listed := alwaysZero[f]; z != listed {
			t.Errorf("RunCounters.%s: zero in every run = %v, listed as always zero = %v", f, z, listed)
		}
	}
}
