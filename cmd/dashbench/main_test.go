package main

import (
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"dash/internal/bench"
	"dash/internal/core"
	"dash/internal/pmem"
	"dash/internal/service"
	"dash/internal/workload"
)

// The BENCH row's header (schema v11): every key of a row but "meters". A
// key added to bench.Result must be listed here and in the README's
// "Reading the BENCH JSON" section, or TestRowSchema fails. The restart
// walls are present on -recovery rows only, the service columns on service
// rows only.
var (
	headerKeys = []string{
		"mix", "threads", "ops", "elapsed_ns", "mops_per_s",
		"p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns", "mean_ns",
		"pm_read_bytes_per_op", "pm_write_bytes_per_op", "pm_flushed_bytes_per_op",
		"pm_fences_per_op", "pm_device_ns_per_op", "pm_device_ns",
		"count", "global_depth", "segments", "load_factor", "stash_share", "allocated_bytes",
		"insert_overflows", "insert_too_large",
	}
	recoveryKeys = []string{"recovery_open_ns", "recovery_full_ns", "recovery_clean_open_ns", "recovery_meters"}
	serviceKeys  = []string{"shards", "shard_imbalance", "shard_rows"}
)

// TestRowSchema pins the BENCH row format: a marshalled bench.Result has
// exactly the header keys listed above plus "meters", and the meters of a
// direct row (and its recovery_meters) name exactly what a fresh table's
// registry holds — a 2-shard service row's, what a fresh table's and a fresh
// frontend's hold — meter by meter and kind by kind. A meter registered in
// core/obs.go or by the frontend therefore reaches the row with no other
// edit, and this test keeps passing.
func TestRowSchema(t *testing.T) {
	mix := func(name string) workload.Mix {
		m, ok := workload.MixByName(name)
		if !ok {
			t.Fatalf("%q not registered", name)
		}
		return m
	}
	base := bench.Config{Threads: 2, Ops: 2000, WarmupOps: 200, Keyspace: 2048, Seed: 42}
	direct, svc := base, base
	direct.Mix, direct.MeasureRecovery = mix("insert"), true
	// The two shards take unequal shares of this seed's balanced ops (1002
	// and 998: shard_imbalance 0.002, the same on every run, since routing
	// and the streams are deterministic), so the service column omitted at
	// zero is present.
	svc.Mix, svc.Shards = mix("balanced"), 2

	pool, err := pmem.NewPool(pmem.Options{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := core.Create(pool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	shards, err := service.New(service.Config{Shards: 2, PoolSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()
	fe := service.NewFrontend(shards, 0)
	defer fe.Close()
	tableMeters := meterNames(t, marshal(t, tbl.Metrics().Snapshot()))
	serviceMeters := meterNames(t, marshal(t, tbl.Metrics().Snapshot().Add(fe.Metrics().Snapshot())))

	for _, tc := range []struct {
		name   string
		cfg    bench.Config
		keys   []string
		meters []string
	}{
		{"direct", direct, slices.Concat(headerKeys, recoveryKeys), tableMeters},
		{"service", svc, slices.Concat(headerKeys, serviceKeys), serviceMeters},
	} {
		res, err := bench.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var row map[string]json.RawMessage
		if err := json.Unmarshal(marshal(t, res), &row); err != nil {
			t.Fatal(err)
		}
		want := append([]string{"meters"}, tc.keys...)
		if got := slices.Sorted(maps.Keys(row)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
			t.Errorf("%s row keys %v\nwant %v", tc.name, got, slices.Sorted(slices.Values(want)))
		}
		checkMeters(t, tc.name+" meters", row["meters"], tc.meters)
		if rec, ok := row["recovery_meters"]; ok {
			checkMeters(t, tc.name+" recovery_meters", rec, tableMeters)
		}
	}
}

// marshal encodes v the way dashbench writes its rows.
func marshal(t *testing.T, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// meterNames lists a marshalled registry snapshot's meters as kind/name.
func meterNames(t *testing.T, data json.RawMessage) []string {
	t.Helper()
	var kinds map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &kinds); err != nil {
		t.Fatal(err)
	}
	var names []string
	for kind, meters := range kinds {
		for name := range meters {
			names = append(names, kind+"/"+name)
		}
	}
	slices.Sort(names)
	return names
}

func checkMeters(t *testing.T, what string, got json.RawMessage, want []string) {
	t.Helper()
	if names := meterNames(t, got); !slices.Equal(names, want) {
		t.Errorf("%s %v\nwant what a fresh registry holds: %v", what, names, want)
	}
}
