package raizn

import (
	"bytes"
	"sync"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/parity"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// The ring-vs-direct tests run each scenario with every data-path sub-IO
// on the ring and then check the ring's work from below: the member
// devices are read with their own per-command Read, bypassing the array
// and its ring, and must hold the written pattern at the layout's
// addresses with every complete stripe's parity unit the XOR of its
// data; and the ring's drain counters must match the SQ groups the
// devices themselves report draining.

// readDev reads n sectors at sector straight off d.
func readDev(t *testing.T, d *zns.Device, sector, n int64) []byte {
	t.Helper()
	buf := make([]byte, n*int64(d.Config().SectorSize))
	if err := d.Read(sector, buf).Wait(); err != nil {
		t.Fatalf("direct device read at %d (%d sectors): %v", sector, n, err)
	}
	return buf
}

// directRead assembles [lba, lba+n) straight off the member devices,
// one sector at a time: at the layout's arithmetic address, or, where
// crash recovery relocated the range (§5.2), at the relocated payload's
// device and sector.
func directRead(t *testing.T, v *Volume, devs []*zns.Device, lba, n int64) []byte {
	t.Helper()
	ss := int64(v.SectorSize())
	out := make([]byte, 0, n*ss)
	v.relocMu.Lock()
	frags := map[int][]relocEntry{}
	for z, fs := range v.reloc {
		frags[z] = append([]relocEntry(nil), fs...)
	}
	v.relocMu.Unlock()
	for cur := lba; cur < lba+n; cur++ {
		a := v.lt.locate(cur)
		dev, pba := a.dev, a.pba
		for _, f := range frags[v.lt.zoneOf(cur)] {
			if f.startLBA <= cur && cur < f.endLBA {
				dev, pba = f.dev, f.pba+(cur-f.startLBA)
			}
		}
		out = append(out, readDev(t, devs[dev], pba, 1)...)
	}
	return out
}

// checkDevicesDirect reads every stripe unit below each zone's write
// pointer straight off the devices and checks it holds the written
// pattern, and that every complete stripe's parity unit is the XOR of
// the pattern's data units (so a failed device's units are exactly
// recoverable). Units and parity on device failed (-1 for none) are not
// read.
func checkDevicesDirect(t *testing.T, what string, v *Volume, devs []*zns.Device, failed int) {
	t.Helper()
	lt := v.lt
	zs, stripeSec := v.ZoneSectors(), v.StripeSectors()
	for z := 0; z < v.NumZones(); z++ {
		start := int64(z) * zs
		wp := v.Zone(z).WP - start
		for s := int64(0); s*stripeSec < wp; s++ {
			var units [][]byte
			for u := 0; u < lt.d; u++ {
				off := s*stripeSec + int64(u)*lt.su
				n := min(lt.su, wp-off)
				if n <= 0 {
					break
				}
				want := lbaPattern(v, start+off, int(n))
				units = append(units, want)
				if lt.dataDev(z, s, u) == failed {
					continue
				}
				if got := directRead(t, v, devs, start+off, n); !bytes.Equal(got, want) {
					t.Errorf("%s: zone %d stripe %d unit %d on device %d is not the written pattern",
						what, z, s, u, lt.dataDev(z, s, u))
				}
			}
			p := lt.parityDev(z, s)
			if (s+1)*stripeSec > wp || p == failed {
				continue
			}
			if got := readDev(t, devs[p], lt.parityPBA(z, s), lt.su); !bytes.Equal(got, parity.Encode(units...)) {
				t.Errorf("%s: zone %d stripe %d parity on device %d is not the XOR of its data", what, z, s, p)
			}
		}
	}
}

// drainTally counts the SQ groups the devices report draining: each
// "zns.ring.drain" crossing carries its group's accepted-command count.
type drainTally struct {
	mu           sync.Mutex
	groups, sqes int64
}

// tallyDrains attaches a drain-counting hook to every device.
func tallyDrains(devs []*zns.Device) *drainTally {
	dt := &drainTally{}
	hook := func(p obs.HookPoint) {
		if p.Name == "zns.ring.drain" {
			dt.mu.Lock()
			dt.groups++
			dt.sqes += p.Arg
			dt.mu.Unlock()
		}
	}
	for i, d := range devs {
		d.AttachHook(hook, i)
	}
	return dt
}

// check compares the ring's own drain counters with the devices' tally:
// every group the ring flushed reached its device, and the device
// accepted every SQE in it.
func (dt *drainTally) check(t *testing.T, what string, v *Volume) {
	t.Helper()
	reg := v.Metrics()
	groups, sqes := reg.Counter("ring_batches_total").Load(), reg.Counter("ring_sqes_total").Load()
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if groups != dt.groups || sqes != dt.sqes || groups == 0 {
		t.Errorf("%s: ring drained %d groups / %d SQEs, devices accepted %d groups / %d SQEs",
			what, groups, sqes, dt.groups, dt.sqes)
	}
}

// TestRingVsDirectDifferentialConcurrent races one pipelined writer per
// zone, reads everything back through the ring (the copying read path's
// batched SQEs) against the model, and checks the devices directly.
func TestRingVsDirectDifferentialConcurrent(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		dt := tallyDrains(devs)
		v, err := Create(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		runDiffWorkload(t, c, v, true, true)
		ms := modelWorkload(v, true, true)
		checkSnapshot(t, "ring", v, snapshotVolume(t, v), expectFromModel(ms))
		dt.check(t, "ring", v)
		checkDevicesDirect(t, "direct", v, devs, -1)
	})
}

// TestRingVsDirectDifferentialZRWA repeats the check on ParityZRWA devices:
// in-place parity updates go straight to the device's zone random-write
// area, ordered against the staged SQ groups (the group is flushed
// before every ZRWA write), so every complete stripe's parity read
// directly off the device must be the XOR of its ring-written data.
func TestRingVsDirectDifferentialZRWA(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for j := range devs {
			devs[j] = zns.NewDevice(c, extDevConfig())
		}
		dt := tallyDrains(devs)
		cfg := DefaultConfig()
		cfg.Parity = ParityZRWA
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		runDiffWorkload(t, c, v, false, true)
		ms := modelWorkload(v, false, true)
		checkSnapshot(t, "ring-zrwa", v, snapshotVolume(t, v), expectFromModel(ms))
		dt.check(t, "ring-zrwa", v)
		checkDevicesDirect(t, "direct-zrwa", v, devs, -1)
		if v.Stats().ZRWAParityWrites == 0 {
			t.Error("workload drove no in-place parity updates")
		}
	})
}

// TestRingVsDirectDifferentialDegradedAndScrub scrubs a healthy zone and
// then fails a device and keeps writing: the ring's reconstructed
// read-back must match the model, and the surviving devices read
// directly must hold the pattern with parity that recovers every unit
// the failed device owned in a complete stripe.
func TestRingVsDirectDifferentialDegradedAndScrub(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		dt := tallyDrains(devs)
		v, err := Create(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		runDiffWorkload(t, c, v, true, true)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		ms := modelWorkload(v, true, true)
		for s := int64(0); (s+1)*v.StripeSectors() <= ms[0].end; s++ {
			res, err := v.ScrubStripe(0, s, true)
			if err != nil {
				t.Fatalf("ScrubStripe(0, %d): %v", s, err)
			}
			if res.Mismatch || !res.Verified {
				t.Errorf("ScrubStripe(0, %d): mismatch %v, verified %v on healthy volume", s, res.Mismatch, res.Verified)
			}
		}
		if err := v.FailDevice(1); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		exp := expectFromModel(ms)
		for z := range exp {
			exp[z].persisted = exp[z].wp // flushed above
		}
		appendTails(t, v, exp[:3], 16)
		checkSnapshot(t, "ring-degraded", v, snapshotVolume(t, v), exp)
		dt.check(t, "ring-degraded", v)
		checkDevicesDirect(t, "direct-degraded", v, devs, 1)
	})
}

// Crash tests at submission-ring drain boundaries: every device sub-IO
// is staged on the ring and a device applies its whole SQ group under
// one lock acquisition, so a crash can only fall between groups. Every
// recovered state there must hold, per zone, an exact prefix of the
// written pattern that covers at least what was acknowledged (or, for
// the flushed-only cut, what a completed flush covered).

// seqProgress records how far runSeqDiffWorkload has got: acked[z] is
// the zone-relative end of zone z's last completed write, flushed[z] the
// part of it a completed flush made durable.
type seqProgress struct {
	mu             sync.Mutex
	acked, flushed []int64
}

func newSeqProgress(v *Volume) *seqProgress {
	return &seqProgress{acked: make([]int64, v.NumZones()), flushed: make([]int64, v.NumZones())}
}

// snapshot copies the progress. Caller holds p.mu.
func (p *seqProgress) snapshot() (acked, flushed []int64) {
	return append([]int64(nil), p.acked...), append([]int64(nil), p.flushed...)
}

// runSeqDiffWorkload is the crash tests' workload: strictly sequential
// awaited writes (no FUA) so the global order of device command
// applications — and therefore of crash-point crossings — is fixed, with
// one mid-workload flush so the flushed-only crash variant has a
// non-trivial persisted prefix. p, when non-nil, tracks progress.
func runSeqDiffWorkload(t *testing.T, v *Volume, p *seqProgress) {
	t.Helper()
	for z := 0; z < v.NumZones(); z++ {
		lba := int64(z) * v.ZoneSectors()
		for _, n := range diffWriteSizes(z, false) {
			if err := v.Write(lba, lbaPattern(v, lba, int(n)), 0); err != nil {
				t.Fatalf("zone %d write at %d: %v", z, lba, err)
			}
			lba += n
			if p != nil {
				p.mu.Lock()
				p.acked[z] = lba - int64(z)*v.ZoneSectors()
				p.mu.Unlock()
			}
		}
		if z == 1 {
			if err := v.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if p != nil {
				p.mu.Lock()
				copy(p.flushed, p.acked)
				p.mu.Unlock()
			}
		}
	}
}

// crashCapture is one crash point's device clones: the all-submitted
// variant (every zone cut at its submitted write pointer) and the
// flushed-only variant (persisted prefixes), each bound to a fresh clock
// for recovery, with the workload progress at the capture instant.
type crashCapture struct {
	allClk, flClk   *vclock.Clock
	allDevs, flDevs []*zns.Device
	acked, flushed  []int64
}

func captureCrash(devs []*zns.Device) *crashCapture {
	cc := &crashCapture{allClk: vclock.New(), flClk: vclock.New()}
	for _, d := range devs {
		cuts := make(map[int]int64, d.Config().NumZones)
		for z := 0; z < d.Config().NumZones; z++ {
			cuts[z] = 1 << 62 // clamped to the zone's submitted WP
		}
		cc.allDevs = append(cc.allDevs, d.CrashClone(cc.allClk, nil, cuts))
		cc.flDevs = append(cc.flDevs, d.CrashClone(cc.flClk, nil, nil))
	}
	return cc
}

// mountAndCheck recovers one clone set and checks each zone holds an
// exact pattern prefix of lo[z]..hi[z] sectors.
func mountAndCheck(t *testing.T, what string, clk *vclock.Clock, devs []*zns.Device, lo, hi []int64) {
	t.Helper()
	clk.Run(func() {
		v, err := Mount(clk, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: Mount crash clone: %v", what, err)
		}
		recoveredExpect(t, what, v, snapshotVolume(t, v), lo, hi)
	})
}

// TestWritePathCrashAtDrain crashes the workload at SQ-drain boundaries
// and checks the recovered state of both cut variants against the
// workload's progress at the crash. A census pass counts the drains;
// the capture pass clones every device at the chosen drains (the whole
// group is applied before the hook fires, with no virtual time
// mid-batch), and recovery runs on the clones.
func TestWritePathCrashAtDrain(t *testing.T) {
	// Census: count the run's drain crossings.
	totalDrains := 0
	{
		c := vclock.New()
		c.Run(func() {
			v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)
			var mu sync.Mutex
			hook := func(p obs.HookPoint) {
				if p.Name == "zns.ring.drain" {
					mu.Lock()
					totalDrains++
					mu.Unlock()
				}
			}
			for i, d := range devs {
				d.AttachHook(hook, i)
			}
			runSeqDiffWorkload(t, v, nil)
		})
	}
	if totalDrains < 8 {
		t.Fatalf("workload crossed only %d ring drains; the test needs more", totalDrains)
	}
	targets := map[int]bool{
		totalDrains / 4:     true,
		totalDrains / 2:     true,
		3 * totalDrains / 4: true,
		totalDrains - 1:     true,
	}

	// Capture pass: clone at each target drain with the progress so far.
	caps := map[int]*crashCapture{}
	var written []int64
	{
		c := vclock.New()
		c.Run(func() {
			v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)
			prog := newSeqProgress(v)
			drains := 0
			hook := func(p obs.HookPoint) {
				if p.Name != "zns.ring.drain" {
					return
				}
				prog.mu.Lock()
				defer prog.mu.Unlock()
				drains++
				if targets[drains] {
					cc := captureCrash(devs)
					cc.acked, cc.flushed = prog.snapshot()
					caps[drains] = cc
				}
			}
			for i, d := range devs {
				d.AttachHook(hook, i)
			}
			runSeqDiffWorkload(t, v, prog)
			for _, m := range modelWorkload(v, false, false) {
				written = append(written, m.end)
			}
		})
	}
	if len(caps) != len(targets) {
		t.Fatalf("captured %d of %d target drains", len(caps), len(targets))
	}

	for drain, cc := range caps {
		mountAndCheck(t, "crash-all", cc.allClk, cc.allDevs, cc.acked, written)
		mountAndCheck(t, "crash-flushed", cc.flClk, cc.flDevs, cc.flushed, written)
		if t.Failed() {
			t.Fatalf("drain %d of %d: recovered state off the model", drain, totalDrains)
		}
	}
}
