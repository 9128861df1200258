package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sort"
	"time"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// arrayDevices is the device count of every raizn array (4 data + 1
// parity per stripe, as in the paper's evaluation).
const arrayDevices = 5

// zoneCap is every device's zone capacity in sectors (2 MiB, so a logical
// zone of a 5-device array holds 8 MiB and the simulated devices' memory
// stays small).
const zoneCap = 512

// newArray builds arrayDevices devices of the given zone count on clk and
// creates a raizn array over them. Apart from the zone geometry, every
// layer uses its DefaultConfig; tr is the traced run's raizn tracer, or
// nil.
func newArray(clk *vclock.Clock, zones int, tr *obs.Tracer) (*raizn.Volume, []*zns.Device, error) {
	dcfg := zns.DefaultConfig()
	dcfg.NumZones = zones
	dcfg.ZoneCap = zoneCap
	dcfg.ZoneSize = zoneCap + zoneCap/4
	devs := make([]*zns.Device, arrayDevices)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, dcfg)
	}
	cfg := raizn.DefaultConfig()
	cfg.Tracer = tr
	v, err := raizn.Create(clk, devs, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("create array: %w", err)
	}
	return v, devs, nil
}

// crashClone crash-clones devs onto a fresh clock, keeping only what the
// devices had persisted (the most pessimistic legal cut).
func crashClone(devs []*zns.Device) (*vclock.Clock, []*zns.Device) {
	clk := vclock.New()
	clones := make([]*zns.Device, len(devs))
	for i, d := range devs {
		clones[i] = d.CrashClone(clk, nil, nil)
	}
	return clk, clones
}

// devCounters is a snapshot of the device counters of a set of devices.
type devCounters struct {
	host, program, cmds, flushes, resets int64
	perDevHost                           []int64
}

func snapDevices(devs []*zns.Device) devCounters {
	var c devCounters
	for _, d := range devs {
		w, _, f, r := d.Counters()
		c.host += w
		c.flushes += f
		c.resets += r
		c.program += d.FlashProgramBytes()
		c.cmds += d.WriteCommands()
		c.perDevHost = append(c.perDevHost, w)
	}
	return c
}

// sub returns c - base.
func (c devCounters) sub(base devCounters) devCounters {
	out := devCounters{
		host: c.host - base.host, program: c.program - base.program, cmds: c.cmds - base.cmds,
		flushes: c.flushes - base.flushes, resets: c.resets - base.resets,
	}
	for i := range c.perDevHost {
		out.perDevHost = append(out.perDevHost, c.perDevHost[i]-base.perDevHost[i])
	}
	return out
}

// checkWAClosure verifies raizn's layered write-amplification report: the
// per-category device writes must add up to the devices' host writes
// once IO has drained.
func checkWAClosure(v *raizn.Volume) error {
	rep := v.WAReport()
	var cat, dev int64
	for _, c := range rep.Categories {
		cat += c.Bytes
	}
	for _, d := range rep.Devices {
		dev += d.HostBytes
	}
	if cat != dev {
		return fmt.Errorf("WAReport categories sum to %d bytes, devices wrote %d", cat, dev)
	}
	return nil
}

// waBytes returns the WAReport category bytes by name.
func waBytes(v *raizn.Volume) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range v.WAReport().Categories {
		out[c.Name] += c.Bytes
	}
	return out
}

// Sector stamping. Every sector a workload writes starts with its LBA and
// a per-repetition tag, and the rest is one of a few seeded filler
// blocks chosen by the LBA, so a read can check both placement and
// content without keeping a copy of what was written.
const fillers = 16

type stamper struct {
	ss    int
	tag   uint64
	bodys [fillers][]byte
}

func newStamper(seed int64, sectorSize int) *stamper {
	rng := rand.New(rand.NewSource(seed))
	st := &stamper{ss: sectorSize, tag: rng.Uint64()}
	for i := range st.bodys {
		b := make([]byte, sectorSize-16)
		rng.Read(b)
		st.bodys[i] = b
	}
	return st
}

func (st *stamper) body(lba int64) []byte { return st.bodys[uint64(lba*2654435761)%fillers] }

// fill stamps buf, which starts at lba, sector by sector.
func (st *stamper) fill(buf []byte, lba int64) {
	for off := 0; off < len(buf); off += st.ss {
		s := buf[off : off+st.ss]
		binary.LittleEndian.PutUint64(s[0:8], uint64(lba))
		binary.LittleEndian.PutUint64(s[8:16], st.tag)
		copy(s[16:], st.body(lba))
		lba++
	}
}

// bad returns the number of sectors of buf (read from lba) whose stamp
// does not match.
func (st *stamper) bad(buf []byte, lba int64) int64 {
	var n int64
	for off := 0; off < len(buf); off += st.ss {
		s := buf[off : off+st.ss]
		if binary.LittleEndian.Uint64(s[0:8]) != uint64(lba) ||
			binary.LittleEndian.Uint64(s[8:16]) != st.tag ||
			!bytes.Equal(s[16:], st.body(lba)) {
			n++
		}
		lba++
	}
	return n
}

// Runtime metrics read around the measured phase.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtSnap is one reading. memBytes is the memory the Go runtime has mapped
// and not released back to the OS: /memory/classes/total:bytes minus
// /memory/classes/heap/released:bytes.
type rtSnap struct {
	allocs, memBytes uint64
	gcCPU, totalCPU  float64
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocs:   s[0].Value.Uint64(),
		memBytes: s[1].Value.Uint64() - s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		totalCPU: s[4].Value.Float64(),
	}
}

// repResult is what one repetition measured.
type repResult struct {
	attempted, failed int64
	checks            []string

	setupWall time.Duration // build devices, arrays, fs/db, preload
	measWall  time.Duration // wall time of the measured phase
	virt      time.Duration // simulated time of the measured phase
	ops       int64         // user operations completed in the measured phase
	rtStart   rtSnap
	rtEnd     rtSnap

	writeBytes, readBytes int64 // user payload acknowledged in the measured phase
	writeLat, readLat     []time.Duration
	flashWAF              float64
	recoverT              time.Duration

	layer map[string]float64 // per-layer values (traced repetitions)
}

// fail records n failures of the named check.
func (r *repResult) fail(n int64, what string) {
	if n == 0 {
		return
	}
	r.failed += n
	r.checks = append(r.checks, fmt.Sprintf("FAIL %s: %d", what, n))
}

// phaseClock brackets the measured phase on both clocks.
type phaseClock struct {
	clk *vclock.Clock
	v0  time.Duration
	w0  time.Time
	rt0 rtSnap
	rec *recorder
}

func startPhase(clk *vclock.Clock, rec *recorder, trs ...*obs.Tracer) *phaseClock {
	for _, t := range trs {
		if t != nil {
			t.Enable()
		}
	}
	rec.setOn(true)
	rec.markWindow(true)
	return &phaseClock{clk: clk, v0: clk.Now(), w0: time.Now(), rt0: readRuntime(), rec: rec}
}

// stop closes the measured phase and fills the repetition's timing fields.
func (p *phaseClock) stop(r *repResult, trs ...*obs.Tracer) {
	r.measWall = time.Since(p.w0)
	r.virt = p.clk.Now() - p.v0
	r.rtStart, r.rtEnd = p.rt0, readRuntime()
	p.rec.markWindow(false)
	p.rec.setOn(false)
	for _, t := range trs {
		if t != nil {
			t.Disable()
		}
	}
}

// Helpers for reductions.

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// percentileUS returns the p-th percentile (0-100) of the sorted ds in
// µs, by linear interpolation between closest ranks.
func percentileUS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(ds)-1)
	lo := int(pos)
	hi := min(lo+1, len(ds)-1)
	frac := pos - float64(lo)
	return (float64(ds[lo]) + frac*(float64(ds[hi])-float64(ds[lo]))) / 1e3
}

func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum float64
	for _, d := range ds {
		sum += float64(d)
	}
	return sum / float64(len(ds)) / 1e3
}

// tailUS returns the mean, in µs, of the slowest 1% of the sorted ds (at
// least one sample).
func tailUS(ds []time.Duration) float64 {
	k := max(len(ds)/100, 1)
	return meanUS(ds[max(len(ds)-k, 0):])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// skew is max/mean of xs (1 = perfectly even).
func skew(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, mx int64
	for _, x := range xs {
		sum += x
		mx = max(mx, x)
	}
	return ratio(float64(mx), float64(sum)/float64(len(xs)))
}

const mib = 1 << 20
