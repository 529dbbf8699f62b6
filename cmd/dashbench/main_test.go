package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"dash/internal/bench"
	"dash/internal/workload"
)

// schemaAdditions are the row keys a BENCH file carries today that
// BENCH_pr9.json, the last committed trajectory file, predates: the device
// time columns of schema v8 (PR 13). A key added to bench.Result (or to the
// core.TableStats it embeds) must be listed here and in the README's
// "Reading the BENCH JSON" section, or this test fails.
var schemaAdditions = []string{"pm_device_ns", "pm_device_ns_per_op"}

// rowKeys marshals one result the way dashbench writes it and returns the
// row's key set.
func rowKeys(t *testing.T, cfg bench.Config) map[string]bool {
	t.Helper()
	res, err := bench.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var row map[string]json.RawMessage
	if err := json.Unmarshal(data, &row); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for k := range row {
		keys[k] = true
	}
	return keys
}

// TestRowSchemaMatchesTrajectoryFile pins the BENCH row format: a
// marshalled bench.Result has exactly the keys of the corresponding row of
// BENCH_pr9.json (classic rows there were measured with -recovery; its first
// service row is the 1×1 baseline, where imbalance and reconnects are zero
// and omitted) plus the listed additions.
func TestRowSchemaMatchesTrajectoryFile(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_pr9.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Results []map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var classic, service map[string]json.RawMessage
	for _, row := range file.Results {
		_, isSvc := row["shards"]
		if isSvc && service == nil {
			service = row
		} else if !isSvc && classic == nil {
			classic = row
		}
	}
	if classic == nil || service == nil {
		t.Fatal("BENCH_pr9.json lacks a classic or a service row")
	}

	sim := func(name string) workload.ClientSim {
		s, ok := workload.ClientSimByName(name)
		if !ok {
			t.Fatalf("%q not registered", name)
		}
		return s
	}
	base := bench.Config{Threads: 2, Ops: 2000, WarmupOps: 200, Keyspace: 2048, Seed: 42}
	classicCfg, serviceCfg := base, base
	classicCfg.Sim, classicCfg.MeasureRecovery = sim("insert"), true
	serviceCfg.Sim, serviceCfg.Shards, serviceCfg.Batch = sim("svc-balanced"), 1, 1

	for _, tc := range []struct {
		name string
		want map[string]json.RawMessage
		got  map[string]bool
	}{
		{"classic", classic, rowKeys(t, classicCfg)},
		{"service", service, rowKeys(t, serviceCfg)},
	} {
		want := map[string]bool{}
		for k := range tc.want {
			want[k] = true
		}
		for _, k := range schemaAdditions {
			want[k] = true
		}
		var missing, extra []string
		for k := range want {
			if !tc.got[k] {
				missing = append(missing, k)
			}
		}
		for k := range tc.got {
			if !want[k] {
				extra = append(extra, k)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		if len(missing)+len(extra) > 0 {
			t.Errorf("%s row: missing keys %v, unlisted keys %v", tc.name, missing, extra)
		}
	}
}
