package raizn

import (
	"bytes"
	"reflect"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Write-path differential tests: each scenario runs once on the volume
// and is checked against a model computed from the test's own write
// sequence. Every test write stores lbaPattern at its own LBA, so a
// zone's expected contents are the pattern over [zoneStart, WP); the
// parity, partial-parity and checksum counters follow from how the
// write sizes fall on stripe boundaries; and the traced device-write
// spans must account for exactly the sub-IOs the coalescer merged.

// diffWriteSizes is a deterministic per-zone mix of write shapes:
// sub-unit, unit-aligned, stripe-completing, exact-stripe (full-stripe
// bypass), stripe-spanning, and multi-stripe writes, ending in a partial
// tail. Zone 4 additionally fills to capacity to exercise the ZoneFull
// transition.
func diffWriteSizes(z int, fillZone bool) []int64 {
	sizes := []int64{4, 8, 52, 64, 12, 116, 4, 60, 128, 20} // sums to 468 < 512
	if z == 4 && fillZone {
		sizes = append(sizes, 44) // 512: fills the zone
	}
	return sizes
}

// fuaWrite reports whether the i-th write of a zone's sequence carries
// FUA in runDiffWorkload.
func fuaWrite(i int) bool { return i%4 == 1 }

// runDiffWorkload drives one writer goroutine per logical zone, each
// pipelining its zone's write sequence (futures collected, then awaited)
// so multiple tickets are in flight per zone while zones race on the
// shared devices. With fua set, every 4th write carries FUA so the
// persistence bitmap has deterministic structure before any flush. (The
// crash scenarios run without FUA: a FUA write flushes the whole device,
// and the device refuses to lose persisted sectors to a power cut, so
// any FUA would defeat the crash cuts.)
func runDiffWorkload(t *testing.T, c *vclock.Clock, v *Volume, fillZone, fua bool) {
	t.Helper()
	wg := c.NewWaitGroup()
	for z := 0; z < v.NumZones(); z++ {
		z := z
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			lba := int64(z) * v.ZoneSectors()
			var futs []*vclock.Future
			for i, n := range diffWriteSizes(z, fillZone) {
				var fl zns.Flag
				if fua && fuaWrite(i) {
					fl = zns.FUA
				}
				futs = append(futs, v.SubmitWrite(lba, lbaPattern(v, lba, int(n)), fl))
				lba += n
			}
			if err := vclock.WaitAll(futs...); err != nil {
				t.Errorf("zone %d workload: %v", z, err)
			}
		})
	}
	wg.Wait()
}

// seqModel is what one zone's write sequence must drive, derived from
// the write sizes alone. A chunk is the part of one write that falls
// inside one stripe.
type seqModel struct {
	end       int64 // zone-relative write pointer after the sequence
	persisted int64 // zone-relative end of the last FUA write
	complete  int64 // chunks that complete their stripe
	partial   int64 // chunks that leave their stripe partial
	dataIOs   int64 // per-stripe-unit data sub-IOs before coalescing
}

func modelSeq(v *Volume, sizes []int64, fua bool) seqModel {
	stripeSec, su := v.StripeSectors(), v.lt.su
	var m seqModel
	for i, n := range sizes {
		for rem := n; rem > 0; {
			in := m.end % stripeSec
			c := min(stripeSec-in, rem)
			if in+c == stripeSec {
				m.complete++
			} else {
				m.partial++
			}
			m.dataIOs += (in+c-1)/su - in/su + 1
			m.end += c
			rem -= c
		}
		if fua && fuaWrite(i) {
			m.persisted = m.end
		}
	}
	return m
}

// modelWorkload models runDiffWorkload zone by zone.
func modelWorkload(v *Volume, fillZone, fua bool) []seqModel {
	ms := make([]seqModel, v.NumZones())
	for z := range ms {
		ms[z] = modelSeq(v, diffWriteSizes(z, fillZone), fua)
	}
	return ms
}

// zoneExpect is the model of one zone's observable state: contents are
// lbaPattern over the first wp sectors, and the persistence bitmap
// covers every stripe unit that starts below persisted.
type zoneExpect struct {
	wp, persisted int64 // zone-relative
	remapped      bool
}

// expectFromModel turns per-zone sequence models into zone expectations.
func expectFromModel(ms []seqModel) []zoneExpect {
	exp := make([]zoneExpect, len(ms))
	for z, m := range ms {
		exp[z] = zoneExpect{wp: m.end, persisted: m.persisted}
	}
	return exp
}

type volSnapshot struct {
	zones   []ZoneDesc
	data    [][]byte // full readback below each zone's WP
	bitmaps [][]uint64
	relocs  int
}

func snapshotVolume(t *testing.T, v *Volume) volSnapshot {
	t.Helper()
	zs := v.ZoneSectors()
	snap := volSnapshot{relocs: v.RelocationCount()}
	for z := 0; z < v.NumZones(); z++ {
		zd := v.Zone(z)
		snap.zones = append(snap.zones, zd)
		n := zd.WP - int64(z)*zs
		buf := make([]byte, n*int64(v.SectorSize()))
		if n > 0 {
			if err := v.Read(int64(z)*zs, buf); err != nil {
				t.Fatalf("zone %d readback (%d sectors): %v", z, n, err)
			}
		}
		snap.data = append(snap.data, buf)
		snap.bitmaps = append(snap.bitmaps, v.PersistenceBitmap(z))
	}
	return snap
}

// modelBitmap is the persistence bitmap of a zone durable below the
// zone-relative offset persisted.
func modelBitmap(v *Volume, persisted int64) []uint64 {
	nSU := v.ZoneSectors() / v.lt.su
	bm := make([]uint64, (nSU+63)/64)
	for su := int64(0); su < nSU && su*v.lt.su < persisted; su++ {
		bm[su/64] |= 1 << (su % 64)
	}
	return bm
}

// checkSnapshot compares a snapshot with the per-zone model: write
// pointer, persisted write pointer, zone state, remap flag, contents and
// persistence bitmap.
func checkSnapshot(t *testing.T, what string, v *Volume, snap volSnapshot, exp []zoneExpect) {
	t.Helper()
	zs := v.ZoneSectors()
	for z, e := range exp {
		zd := snap.zones[z]
		start := int64(z) * zs
		if zd.WP != start+e.wp || zd.PersistedWP != start+e.persisted || zd.Remapped != e.remapped {
			t.Errorf("%s: zone %d WP/PersistedWP/Remapped = %d/%d/%v, model %d/%d/%v",
				what, z, zd.WP-start, zd.PersistedWP-start, zd.Remapped, e.wp, e.persisted, e.remapped)
		}
		switch {
		case e.wp == zs && zd.State != zns.ZoneFull,
			e.wp == 0 && zd.State != zns.ZoneEmpty,
			e.wp > 0 && e.wp < zs && (zd.State == zns.ZoneFull || zd.State == zns.ZoneEmpty):
			t.Errorf("%s: zone %d state %v with %d of %d sectors written", what, z, zd.State, e.wp, zs)
		}
		if !bytes.Equal(snap.data[z], lbaPattern(v, start, int(e.wp))) {
			t.Errorf("%s: zone %d readback is not the written pattern over %d sectors", what, z, e.wp)
		}
		if want := modelBitmap(v, e.persisted); !reflect.DeepEqual(snap.bitmaps[z], want) {
			t.Errorf("%s: zone %d persistence bitmap %v, model %v", what, z, snap.bitmaps[z], want)
		}
	}
}

// recoveredExpect checks that every zone of a recovered snapshot holds an
// exact prefix of its written pattern of at least min[z] and at most
// max[z] sectors, and returns the zone expectations for the observed
// prefixes (recovery declares everything on media durable).
func recoveredExpect(t *testing.T, what string, v *Volume, snap volSnapshot, lo, hi []int64) []zoneExpect {
	t.Helper()
	zs := v.ZoneSectors()
	exp := make([]zoneExpect, len(lo))
	for z := range exp {
		wp := snap.zones[z].WP - int64(z)*zs
		if wp < lo[z] || wp > hi[z] {
			t.Errorf("%s: zone %d recovered %d sectors, want %d..%d", what, z, wp, lo[z], hi[z])
		}
		exp[z] = zoneExpect{wp: wp, persisted: wp, remapped: snap.zones[z].Remapped}
	}
	checkSnapshot(t, what, v, snap, exp)
	return exp
}

// checkWriteStats compares the counters a workload drives with the
// sequence model: every complete stripe writes one parity unit and one
// checksum record; every partial chunk logs partial parity, or in ZRWA
// mode every chunk updates the parity prefix in place instead.
func checkWriteStats(t *testing.T, what string, v *Volume, st Stats, ms []seqModel, zrwa bool) {
	t.Helper()
	var end, complete, partial int64
	for _, m := range ms {
		end += m.end
		complete += m.complete
		partial += m.partial
	}
	full, pp, zw := complete, partial, int64(0)
	if zrwa {
		full, pp, zw = 0, 0, complete+partial
	}
	type pair struct {
		name      string
		got, want int64
	}
	for _, p := range []pair{
		{"LogicalWriteBytes", st.LogicalWriteBytes, end * int64(v.SectorSize())},
		{"FullParityWrites", st.FullParityWrites, full},
		{"PartialParityLogs", st.PartialParityLogs, pp},
		{"ZRWAParityWrites", st.ZRWAParityWrites, zw},
		{"ChecksumRecords", st.ChecksumRecords, complete},
		{"Relocations", st.Relocations, 0},
	} {
		if p.got != p.want {
			t.Errorf("%s: %s = %d, model %d", what, p.name, p.got, p.want)
		}
	}
}

// checkSpans checks the traced device writes against the counters and
// the model: segment counts on dev-write spans account for exactly the
// sub-IOs CoalescedSubWrites says were merged, and traced commands plus
// merged sub-IOs equal the uncoalesced sub-IO count of the model (one
// per touched stripe unit, plus each parity write).
func checkSpans(t *testing.T, what string, roots []*obs.Span, st Stats, ms []seqModel, zrwa bool) {
	t.Helper()
	count, merged := devWriteSpanStats(roots)
	if merged != st.CoalescedSubWrites {
		t.Errorf("%s: span segment surplus %d != CoalescedSubWrites %d", what, merged, st.CoalescedSubWrites)
	}
	var subIOs int64
	for _, m := range ms {
		subIOs += m.dataIOs + m.complete
		if zrwa {
			subIOs += m.partial
		}
	}
	if count+merged != subIOs {
		t.Errorf("%s: traced %d dev-writes + %d merged, model %d sub-IOs", what, count, merged, subIOs)
	}
}

// devWriteSpanStats walks every retained root span and totals the
// device-write sub-spans: count is how many dev-write commands were
// traced; merged is how many sub-IOs vectored commands absorbed (a
// dev-write span carrying k scatter-gather segments saved k-1 commands).
func devWriteSpanStats(roots []*obs.Span) (count, merged int64) {
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Op == obs.OpDevWrite {
			count++
			if n := s.Segs(); n > 1 {
				merged += int64(n - 1)
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, s := range roots {
		walk(s)
	}
	return count, merged
}

// degradedPieces counts the stripe-unit pieces a full readback of every
// zone serves by reconstruction while device dev is failed: one per data
// unit owned by dev that starts below its zone's write pointer.
func degradedPieces(v *Volume, dev int) int64 {
	zs, stripeSec := v.ZoneSectors(), v.StripeSectors()
	var n int64
	for z := 0; z < v.NumZones(); z++ {
		wp := v.Zone(z).WP - int64(z)*zs
		for off := int64(0); off < wp; off += v.lt.su {
			s := off / stripeSec
			if v.lt.dataDev(z, s, int((off%stripeSec)/v.lt.su)) == dev {
				n++
			}
		}
	}
	return n
}

// TestWritePathDifferentialConcurrent races one pipelined writer per
// zone and checks contents, zone state, persistence, counters and traced
// sub-IOs against the model, then checks full persistence after a flush.
func TestWritePathDifferentialConcurrent(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		tr := obs.NewTracer(c, obs.Config{})
		tr.Enable()
		cfg := DefaultConfig()
		cfg.Tracer = tr
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		runDiffWorkload(t, c, v, true, true)
		ms := modelWorkload(v, true, true)
		st := v.Stats()
		checkSpans(t, "concurrent", tr.Snapshot(), st, ms, false)
		checkSnapshot(t, "concurrent", v, snapshotVolume(t, v), expectFromModel(ms))
		checkWriteStats(t, "concurrent", v, st, ms, false)
		if st.CoalescedSubWrites == 0 {
			t.Error("no sub-IOs were coalesced")
		}

		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		for z := 0; z < v.NumZones(); z++ {
			zd := v.Zone(z)
			if zd.PersistedWP != zd.WP {
				t.Errorf("zone %d: PersistedWP %d != WP %d after flush", z, zd.PersistedWP, zd.WP)
			}
		}
	})
}

// crashCuts applies the crash scenarios' per-device zone fills: persist
// everything except data zone 1 on devices 1 and 2 (two holes per
// stripe — no redundancy to repair from, so recovery must truncate) and
// device 3's data zone 2 (single hole, repairable). The truncated zone's
// uncut peers keep debris beyond the recovered write pointer.
func crashCuts(devs []*zns.Device) {
	for di, d := range devs {
		m := map[int]int64{}
		for z := 0; z < d.Config().NumZones; z++ {
			m[z] = d.Zone(z).WP - d.ZoneStart(z)
		}
		if (di == 1 || di == 2) && m[1] > 24 {
			m[1] = 24
		}
		if di == 3 && m[2] > 40 {
			m[2] = 40
		}
		d.PowerLossAt(m)
	}
}

// crashBounds is the model of crashCuts' recovery: every zone keeps its
// whole written sequence except zone 1, which keeps at least its first
// stripe (whole on every device) and loses the cut stripes.
func crashBounds(v *Volume, ms []seqModel) (lo, hi []int64) {
	for z, m := range ms {
		lo, hi = append(lo, m.end), append(hi, m.end)
		if z == 1 {
			lo[z], hi[z] = v.StripeSectors(), m.end-1
		}
	}
	return lo, hi
}

// appendTails writes up to n pattern sectors at every non-full zone's
// write pointer and advances exp to match.
func appendTails(t *testing.T, v *Volume, exp []zoneExpect, n int64) {
	t.Helper()
	zs := v.ZoneSectors()
	for z := range exp {
		k := min(n, zs-exp[z].wp)
		if k <= 0 {
			continue
		}
		mustWriteV(t, v, int64(z)*zs+exp[z].wp, int(k), 0)
		exp[z].wp += k
	}
}

// TestWritePathDifferentialCrash cuts per-device zone fills out of the
// devices mid-workload and checks the recovered state against the
// model, then keeps writing over the crash debris (which drives the §5.2
// burned-prefix relocation through the coalescing submit planner) and
// checks again.
func TestWritePathDifferentialCrash(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)
		runDiffWorkload(t, c, v, true, false)
		ms := modelWorkload(v, true, false)
		crashCuts(devs)
		v2, err := Mount(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Mount after crash: %v", err)
		}
		lo, hi := crashBounds(v2, ms)
		exp := recoveredExpect(t, "post-crash", v2, snapshotVolume(t, v2), lo, hi)

		// Continue writing into every recovered zone tail. The new
		// writes are not durable yet; recovery declared the rest so.
		appendTails(t, v2, exp, 32)
		after := snapshotVolume(t, v2)
		for z := range exp {
			exp[z].remapped = after.zones[z].Remapped
		}
		checkSnapshot(t, "post-crash-write", v2, after, exp)
		if after.relocs == 0 {
			t.Error("writing over crash debris produced no relocations; burn-split path untested")
		}
	})
}

// TestWritePathDifferentialDegradedAndScrub checks that scrub verifies
// every complete stripe of a healthy zone, and that degraded writes and
// reconstructed reads after a device failure match the model.
func TestWritePathDifferentialDegradedAndScrub(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, _, _ := newParityVol(t, c, testDevConfig(), ParityLog)
		runDiffWorkload(t, c, v, true, true)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		ms := modelWorkload(v, true, true)

		// Scrub every complete stripe of zone 0 while healthy.
		verified := int64(0)
		for s := int64(0); (s+1)*v.StripeSectors() <= ms[0].end; s++ {
			res, err := v.ScrubStripe(0, s, true)
			if err != nil {
				t.Fatalf("ScrubStripe(0, %d): %v", s, err)
			}
			if res.Mismatch {
				t.Errorf("ScrubStripe(0, %d): mismatch on healthy volume", s)
			}
			if res.Verified {
				verified++
			}
		}
		if want := ms[0].end / v.StripeSectors(); verified != want || verified == 0 {
			t.Errorf("scrub verified %d stripes, model %d", verified, want)
		}

		// Degrade and keep writing into the open zone tails.
		if err := v.FailDevice(1); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		exp := expectFromModel(ms)
		for z := range exp {
			exp[z].persisted = exp[z].wp // flushed above
		}
		appendTails(t, v, exp[:3], 16)
		before := v.Stats().DegradedReads
		snap := snapshotVolume(t, v) // full readback reconstructs through parity
		checkSnapshot(t, "degraded", v, snap, exp)
		got, want := v.Stats().DegradedReads-before, degradedPieces(v, 1)
		if got != want || got == 0 {
			t.Errorf("degraded readback reconstructed %d pieces, model %d", got, want)
		}
	})
}

// TestWritePathDifferentialZRWA runs the concurrent workload on
// ParityZRWA-mode devices, where every stripe updates its parity prefix in
// place through the zone random-write area; those updates must never be
// merged into a sequential run.
func TestWritePathDifferentialZRWA(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for j := range devs {
			devs[j] = zns.NewDevice(c, extDevConfig())
		}
		cfg := DefaultConfig()
		cfg.Parity = ParityZRWA
		tr := obs.NewTracer(c, obs.Config{})
		tr.Enable()
		cfg.Tracer = tr
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		// No zone fills: a partial tail stripe's in-place parity prefix
		// occupies the zone's last physical unit, and the simulated
		// device then (correctly) refuses further ZRWA rewrites once the
		// zone is at capacity.
		runDiffWorkload(t, c, v, false, true)
		ms := modelWorkload(v, false, true)
		st := v.Stats()
		checkSpans(t, "zrwa", tr.Snapshot(), st, ms, true)
		checkSnapshot(t, "zrwa", v, snapshotVolume(t, v), expectFromModel(ms))
		checkWriteStats(t, "zrwa", v, st, ms, true)
		if st.ZRWAParityWrites == 0 {
			t.Error("workload drove no in-place parity updates")
		}
	})
}
