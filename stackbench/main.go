// Command stackbench is the repository's end-to-end benchmark. It runs one
// named workload against the simulated stack (zns devices, raizn arrays,
// and on top of them lfs+kvs or the volmgr serving engine) through the
// layers' public APIs, checks every read and a crash-restart read-back,
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// also records spans around every call the benchmark makes into a layer
// and reports the per-layer set instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps a workload name to its single-repetition driver.
var workloads = map[string]func(rc repConfig) (*repResult, error){
	"kv-mixed": runKVMixed,
	"stream":   runStream,
	"tenants":  runTenants,
}

// minReps is how many repetitions a run makes even when -seconds has
// already passed.
const minReps = 3

// repConfig parameterizes one repetition of a workload.
type repConfig struct {
	seed  int64
	scale float64   // multiplies operation counts and dataset sizes; 1 for the benchmark, less in the smoke test
	rec   *recorder // non-nil in a traced repetition
}

// scaled returns n scaled by the repetition's scale factor, at least min.
func (rc repConfig) scaled(n, min int) int {
	v := int(float64(n) * rc.scale)
	if v < min {
		v = min
	}
	return v
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: kv-mixed, stream or tenants")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "wall seconds to keep starting repetitions")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spansOut := fs.String("spans", "", "file the last traced repetition's spans are written to (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "stackbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "stackbench: -trace must be 0 or 1")
		return 2
	}

	res, err := measure(drive, *seed, *seconds, minReps, 1, *trace == 1, *spansOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stackbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Printf("# workload=%s seed=%d gomaxprocs=%d go=%s reps=%d traced=%v\n",
		*workload, *seed, runtime.GOMAXPROCS(0), runtime.Version(), res.reps, *trace == 1)
	seen := make(map[string]int)
	var order []string
	for _, c := range res.checks {
		if seen[c] == 0 {
			order = append(order, c)
		}
		seen[c]++
	}
	for _, c := range order {
		fmt.Printf("# check %s (%d of %d reps)\n", c, seen[c], res.runs)
	}
	for _, l := range res.info {
		fmt.Printf("# %s\n", l)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%-36s %14.4f %-6s %s\n", n, m.Value, m.Unit, m.note)
	}
	fmt.Printf("%-36s %14.6f %-6s errored+shed+mismatches+post-crash misses over attempted\n",
		"fail_ratio", float64(res.failed)/float64(max(res.attempted, 1)), "ratio")

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stackbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if res.failed != 0 {
		return 1
	}
	return 0
}

// settle collects the previous repetition's garbage before the next one
// starts, so each repetition's memory and GC figures are its own. Two
// cycles also empty the sync.Pool victim caches.
func settle() {
	runtime.GC()
	runtime.GC()
}

// metric is one reported value. note is printed in the human-readable
// lines only (sample counts, definitions).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// runResult is what a whole run reports.
type runResult struct {
	reps      int // untraced repetitions
	runs      int // all repetitions, traced ones included
	attempted int64
	failed    int64
	metrics   map[string]metric
	checks    []string
	info      []string // extra human-readable lines
}

// measure starts repetitions until seconds of wall time have passed (and
// at least minReps ran), then reduces them with endToEnd, or with
// perLayer for a traced run. A traced run alternates an untraced and a
// traced repetition of the same seed, so the tracing overhead is measured
// in one process.
func measure(drive func(repConfig) (*repResult, error), seed int64, seconds float64, minReps int, scale float64, traced bool, spansOut string) (*runResult, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var plain, withTrace []*repResult
	var lastRec *recorder
	for i := 0; ; i++ {
		if i >= minReps && !time.Now().Before(deadline) {
			break
		}
		if i >= 200 {
			break
		}
		rc := repConfig{seed: seed*1_000_003 + int64(i), scale: scale}
		settle()
		r, err := drive(rc)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		plain = append(plain, r)
		if traced {
			rc.rec = newRecorder()
			settle()
			r, err := drive(rc)
			if err != nil {
				return nil, fmt.Errorf("traced repetition %d: %w", i, err)
			}
			withTrace = append(withTrace, r)
			lastRec = rc.rec
		}
	}
	all := append(append([]*repResult(nil), plain...), withTrace...)
	res := &runResult{reps: len(plain), runs: len(all)}
	for _, r := range all {
		res.attempted += r.attempted
		res.failed += r.failed
	}
	for _, r := range all {
		res.checks = append(res.checks, r.checks...)
	}
	if !traced {
		res.metrics, res.info = endToEnd(plain)
		return res, nil
	}
	res.metrics = perLayer(plain, withTrace)
	if spansOut != "" && lastRec != nil {
		if err := lastRec.writeJSONL(spansOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}
