// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (§6), each reproducing the workload,
// parameter sweep, and output series of the original on the simulated
// device arrays. Absolute numbers differ from the paper's testbed; the
// shapes — who wins, by what factor, where the crossovers sit — are the
// reproduction targets recorded in EXPERIMENTS.md.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"raizn/internal/blockdev"
	"raizn/internal/mdraid"
	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Experiment is a registered, runnable reproduction of one paper result.
type Experiment struct {
	Name  string // registry key, e.g. "fig9"
	Title string
	Run   func(w io.Writer, quick bool) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Options configures one experiment run.
type Options struct {
	// Quick shrinks the workload for smoke tests.
	Quick bool
	// MetricsPath, when non-empty, receives a JSON snapshot of the run's
	// metrics registry when the experiment finishes.
	MetricsPath string
	// FlightPath, when non-empty, rides a flight recorder on the run's
	// raizn arrays and writes the sampled time series (a FlightReport)
	// when the experiment finishes. Experiments that build several
	// arrays report the last one built; mdraid-only sides of a compare
	// are not recorded.
	FlightPath string
}

// runRegistry collects the metrics of every volume, device and scrubber
// built during the current experiment run. RunOpts resets it per run and
// snapshots it to Options.MetricsPath. Experiments that sweep
// configurations build several volumes against the same registry: same-
// name counters accumulate across the sweep, and pull-style device
// gauges reflect the most recently built array (GaugeFunc replaces).
var runRegistry = obs.NewRegistry()

// runFlight is the flight recorder attached to the most recent raizn
// array of the current run, when Options.FlightPath asked for one.
var (
	runFlight    *flight.Recorder
	flightWanted bool
)

// Run executes the named experiment, writing its report to w. quick
// shrinks the workload for smoke tests.
func Run(name string, w io.Writer, quick bool) error {
	return RunOpts(name, w, Options{Quick: quick})
}

// RunOpts executes the named experiment with the given options.
func RunOpts(name string, w io.Writer, opts Options) error {
	for _, e := range registry {
		if e.Name == name {
			fmt.Fprintf(w, "=== %s: %s ===\n", e.Name, e.Title)
			runRegistry = obs.NewRegistry()
			runFlight, flightWanted = nil, opts.FlightPath != ""
			if err := e.Run(w, opts.Quick); err != nil {
				return err
			}
			if opts.MetricsPath != "" {
				if err := writeMetricsSnapshot(opts.MetricsPath); err != nil {
					return err
				}
				fmt.Fprintf(w, "\nwrote metrics snapshot to %s\n", opts.MetricsPath)
			}
			if opts.FlightPath != "" {
				if err := writeFlightReport(opts.FlightPath, e.Name, opts.Quick); err != nil {
					return err
				}
				fmt.Fprintf(w, "\nwrote flight time series to %s\n", opts.FlightPath)
			}
			return nil
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (use one of %v)", name, names())
}

func writeMetricsSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := runRegistry.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FlightSchemaV1 versions -flight output, like SchemaV1 versions bench
// result files.
const FlightSchemaV1 = "raizn-flight/v1"

// FlightReport is the serialized form of a -flight run: the experiment
// coordinates plus the recorder's black box (sampled metric time
// series, tail-sampled spans, journal tail).
type FlightReport struct {
	Schema     string           `json:"schema"`
	Experiment string           `json:"experiment"`
	Quick      bool             `json:"quick"`
	Box        *flight.BlackBox `json:"box"`
}

func writeFlightReport(path, exp string, quick bool) error {
	if runFlight == nil {
		return fmt.Errorf("bench: -flight: experiment %q built no raizn array to record", exp)
	}
	rep := FlightReport{
		Schema: FlightSchemaV1, Experiment: exp, Quick: quick,
		Box: runFlight.Snapshot(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func names() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.Name)
	}
	return out
}

// scale holds the device geometry for a run.
type scale struct {
	znsZones   int
	znsZoneCap int64 // sectors
	numDevices int
}

func scaleFor(quick bool) scale {
	if quick {
		return scale{znsZones: 16, znsZoneCap: 256, numDevices: 5} // 16 MiB/device
	}
	return scale{znsZones: 64, znsZoneCap: 1024, numDevices: 5} // 256 MiB/device
}

// znsConfig returns the paper-calibrated ZNS device model at the given
// scale. discard drops payload storage for timing-only experiments.
func znsConfig(sc scale, discard bool) zns.Config {
	cfg := zns.DefaultConfig()
	cfg.NumZones = sc.znsZones
	cfg.ZoneCap = sc.znsZoneCap
	cfg.ZoneSize = sc.znsZoneCap + sc.znsZoneCap/4
	cfg.MaxOpenZones = 14
	cfg.MaxActiveZones = 28
	cfg.DiscardData = discard
	// Scale the reset cost with the zone size: the real device resets a
	// 1077 MiB zone in ~2 ms, so a scaled-down zone must not pay the
	// full-size reset or reset overhead dwarfs the (scaled) write time.
	cfg.ResetLatency = 100 * time.Microsecond
	return cfg
}

// blockConfig returns the conventional-SSD model with matching capacity.
func blockConfig(sc scale, discard bool) blockdev.Config {
	cfg := blockdev.DefaultConfig()
	cfg.NumSectors = int64(sc.znsZones) * sc.znsZoneCap
	cfg.DiscardData = discard
	return cfg
}

// newRaizn builds a fresh RAIZN array wired into the run's metrics
// registry. Under -flight it also rides a flight recorder on the array:
// an enabled tracer and journal feed it, and the recorder replaces
// runFlight (a sweep's last array is the one reported).
func newRaizn(clk *vclock.Clock, sc scale, discard bool, su int64) (*raizn.Volume, []*zns.Device, error) {
	devs := make([]*zns.Device, sc.numDevices)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, znsConfig(sc, discard))
		devs[i].RegisterMetrics(runRegistry, fmt.Sprintf("zns_dev%d", i))
	}
	rcfg := raizn.DefaultConfig()
	rcfg.StripeUnitSectors = su
	rcfg.Metrics = runRegistry
	var tr *obs.Tracer
	var jrn *obs.Journal
	if flightWanted {
		jrn = obs.NewJournal(clk, obs.JournalConfig{Capacity: 1 << 14})
		jrn.Enable()
		tr = obs.NewTracer(clk, obs.Config{SinkCapacity: 256})
		tr.Enable()
		rcfg.Tracer = tr
		rcfg.Journal = jrn
	}
	v, err := raizn.Create(clk, devs, rcfg)
	if err == nil && flightWanted {
		rec := flight.New(flight.Config{
			Clock: clk, Registry: runRegistry, Journal: jrn, Label: "bench",
			Degraded: func() bool { return v.Degraded() >= 0 },
		})
		tr.SetObserver(rec)
		runFlight = rec
	}
	return v, devs, err
}

// newMdraid builds a fresh mdraid array wired into the run's metrics
// registry.
func newMdraid(clk *vclock.Clock, sc scale, discard bool, chunk int64) (*mdraid.Volume, []*blockdev.Device, error) {
	devs := make([]*blockdev.Device, sc.numDevices)
	for i := range devs {
		devs[i] = blockdev.NewDevice(clk, blockConfig(sc, discard))
		devs[i].RegisterMetrics(runRegistry, fmt.Sprintf("blockdev_dev%d", i))
	}
	mcfg := mdraid.DefaultConfig()
	mcfg.ChunkSectors = chunk
	v, err := mdraid.New(clk, devs, mcfg)
	return v, devs, err
}

// table is a tiny fixed-width text table writer.
type table struct {
	w      io.Writer
	widths []int
}

func newTable(w io.Writer, headers ...string) *table {
	t := &table{w: w}
	for _, h := range headers {
		width := len(h) + 2
		if width < 12 {
			width = 12
		}
		t.widths = append(t.widths, width)
	}
	t.row(headers...)
	return t
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		w := 12
		if i < len(t.widths) {
			w = t.widths[i]
		}
		fmt.Fprintf(t.w, "%-*s", w, c)
	}
	fmt.Fprintln(t.w)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func kib(bs int64) string { return fmt.Sprintf("%dK", bs*4) } // sectors -> KiB (4 KiB sectors)
