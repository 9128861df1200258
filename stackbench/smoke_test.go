package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// checkNames fails unless got has exactly the metric names and units of
// want.
func checkNames(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("got %d metrics %v, want %d", len(got), names, len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// loaded lists, per workload, per-layer metrics that must be non-zero
// because the workload drives that layer.
var loaded = map[string][]string{
	"kv-mixed": {
		"kvs.flushes", "kvs.dev_reads_per_get", "kvs.open_ms", "kvs.put_self_host_us",
		"lfs.dev_write_kib_mean", "lfs.dev_write_p99_us", "lfs.mount_ms", "lfs.background_byte_frac",
		"raizn.pp_bytes_per_user_byte", "raizn.mount_ms", "raizn.write_self_host_us",
		"zns.write_kib_per_cmd", "zns.program_bytes_per_host_byte",
	},
	"stream": {
		"raizn.write_self_host_us", "raizn.read_self_host_us", "raizn.parity_bytes_per_user_byte",
		"raizn.mount_ms", "zns.busiest_dev_busy_frac", "zns.media_us_p50", "zns.write_kib_per_cmd",
	},
	"tenants": {
		"volmgr.writes_per_array_write", "volmgr.submit_self_host_us", "volmgr.array_byte_skew",
		"raizn.mount_ms", "raizn.parity_bytes_per_user_byte", "zns.write_kib_per_cmd",
	},
}

// TestSmoke runs every workload at a tenth of its size, untraced and
// traced, and checks that nothing failed (reads, post-crash read-back,
// accounting cross-checks) and that each run reports exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		drive, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := measure(drive, 7, 0, 1, 0.1, traced, "")
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Errorf("traced=%v: attempted %d failed %d: %v", traced, res.attempted, res.failed, res.checks)
				}
				if !traced {
					checkNames(t, res.metrics, spec.EndToEnd)
					for n, m := range res.metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", n, m.Value)
						}
					}
					continue
				}
				checkNames(t, res.metrics, spec.PerLayer)
				for _, n := range loaded[w.Name] {
					if res.metrics[n].Value <= 0 {
						t.Errorf("per-layer %s = %v, want > 0 on %s", n, res.metrics[n].Value, w.Name)
					}
				}
			}
		})
	}
}

// TestStreamBypassesPartialParity checks the stream workload's stated
// property: whole-stripe writes leave partial parity at zero.
func TestStreamBypassesPartialParity(t *testing.T) {
	res, err := measure(runStream, 3, 0, 1, 0.1, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if pp := res.metrics["raizn.pp_bytes_per_user_byte"].Value; pp != 0 {
		t.Errorf("stream partial-parity bytes per user byte = %v, want 0", pp)
	}
	for _, n := range []string{"kvs.flushes", "lfs.dev_write_kib_mean", "volmgr.writes_per_array_write"} {
		if v := res.metrics[n].Value; v != 0 {
			t.Errorf("stream %s = %v, want 0 (layer bypassed)", n, v)
		}
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{5, 10}, {0, 3}, {2, 4}, {9, 12}, {20, 20}}
	if got := unionLen(ivs, 1, 11); got != 3+6 {
		t.Errorf("unionLen = %d, want 9", got)
	}
	if got := subtract(interval{0, 10}, []interval{{2, 3}, {5, 12}}); len(got) != 2 || got[0] != (interval{0, 2}) || got[1] != (interval{3, 5}) {
		t.Errorf("subtract = %v", got)
	}
}
