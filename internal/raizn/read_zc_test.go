package raizn

import (
	"bytes"
	"errors"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// zcReadBack reads [lba, lba+n) through SubmitReadZC and returns the
// assembled bytes plus whether the request stayed zero-copy.
func zcReadBack(t *testing.T, v *Volume, lba, n int64) ([]byte, bool) {
	t.Helper()
	r := v.SubmitReadZC(lba, n)
	if err := r.Wait(); err != nil {
		t.Fatalf("SubmitReadZC(%d, %d): %v", lba, n, err)
	}
	out := make([]byte, n*int64(v.SectorSize()))
	if got := r.CopyTo(out); got != len(out) {
		t.Fatalf("SubmitReadZC(%d, %d): assembled %d bytes, want %d", lba, n, got, len(out))
	}
	var total int64
	for _, s := range r.Segs() {
		total += int64(len(s))
	}
	if total != n*int64(v.SectorSize()) {
		t.Fatalf("SubmitReadZC(%d, %d): segments cover %d bytes, want %d", lba, n, total, n*int64(v.SectorSize()))
	}
	zc := r.ZeroCopy()
	r.Release()
	return out, zc
}

// zcRef is a reference read a zero-copy assembly is checked against.
type zcRef func(t *testing.T, v *Volume, devs []*zns.Device, lba, n int64) []byte

// zcRefs are the two references: "ring" is the copying read path, whose
// device sub-reads are staged on the submission ring like the zero-copy
// ones; "direct" reads the member devices themselves (directRead),
// bypassing the array.
var zcRefs = []struct {
	name string
	read zcRef
}{
	{"ring", copyRead},
	{"direct", directRead},
}

// copyRead reads [lba, lba+n) through the copying read path.
func copyRead(t *testing.T, v *Volume, _ []*zns.Device, lba, n int64) []byte {
	t.Helper()
	buf := make([]byte, n*int64(v.SectorSize()))
	if err := v.Read(lba, buf); err != nil {
		t.Fatalf("Read(%d, %d): %v", lba, n, err)
	}
	return buf
}

// checkZCMatches compares a zero-copy read's assembly against the
// reference read of the same range.
func checkZCMatches(t *testing.T, ref zcRef, v *Volume, devs []*zns.Device, lba, n int64) bool {
	t.Helper()
	want := ref(t, v, devs, lba, n)
	got, zc := zcReadBack(t, v, lba, n)
	if !bytes.Equal(got, want) {
		t.Errorf("SubmitReadZC(%d, %d): content differs from the reference read", lba, n)
	}
	return zc
}

// checkZCMatchesCopy compares a zero-copy read's assembly against the
// copying read path for the same range.
func checkZCMatchesCopy(t *testing.T, v *Volume, lba, n int64) bool {
	t.Helper()
	return checkZCMatches(t, copyRead, v, nil, lba, n)
}

// TestSubmitReadZCMatchesCopyRead fills a volume with a mixed write
// pattern and cross-checks zero-copy assembly for sub-unit, unit-,
// stripe- and zone-spanning ranges against the copying path ("ring")
// and against the devices read directly ("direct").
func TestSubmitReadZCMatchesCopyRead(t *testing.T) {
	for _, ref := range zcRefs {
		ref := ref
		t.Run(ref.name, func(t *testing.T) {
			c := vclock.New()
			c.Run(func() {
				v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)
				runDiffWorkload(t, c, v, true, false)
				zs := v.ZoneSectors()
				// Fill zones 0 and 1 to capacity so zone-crossing ranges
				// are legal (a non-full zone refuses reads beyond its WP).
				for z := int64(0); z < 2; z++ {
					wp := v.Zone(int(z)).WP
					mustWriteV(t, v, wp, int(z*zs+zs-wp), 0)
				}

				su := v.StripeSectors() / int64(v.NumDevices()-1)
				ranges := [][2]int64{
					{0, 1},                          // single sector
					{3, su - 1},                     // sub-unit, unaligned start
					{0, su},                         // exact unit
					{su - 2, 5},                     // unit-crossing
					{0, v.StripeSectors()},          // exact stripe
					{su + 1, 2 * v.StripeSectors()}, // stripe-spanning, odd start
					{zs - 8, 16},                    // zone boundary crossing
					{7, 2 * zs},                     // multi-zone
				}
				zc := 0
				for _, rg := range ranges {
					if checkZCMatches(t, ref.read, v, devs, rg[0], rg[1]) {
						zc++
					}
				}
				if zc != len(ranges) {
					t.Errorf("%d of %d ranges fell back to copying; all should stay zero-copy", len(ranges)-zc, len(ranges))
				}
				st := v.Stats()
				if st.ZeroCopyReads != int64(len(ranges)) || st.ZeroCopyFallbacks != 0 {
					t.Errorf("stats: ZeroCopyReads=%d ZeroCopyFallbacks=%d, want %d/0",
						st.ZeroCopyReads, st.ZeroCopyFallbacks, len(ranges))
				}
			})
		})
	}
}

// TestSubmitReadZCValidation checks submit-time error surfacing.
func TestSubmitReadZCValidation(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 32, 0)
		for _, tc := range []struct {
			lba, n int64
			want   error
		}{
			{0, 0, ErrUnaligned},
			{-1, 4, ErrOutOfRange},
			{v.NumSectors(), 4, ErrOutOfRange},
			{64, 8, ErrReadBeyondWP}, // zone 0 has only 32 sectors written
		} {
			r := v.SubmitReadZC(tc.lba, tc.n)
			if err := r.Wait(); !errors.Is(err, tc.want) {
				t.Errorf("SubmitReadZC(%d, %d): err %v, want %v", tc.lba, tc.n, err, tc.want)
			}
			r.Release()
		}
	})
}

// TestSubmitReadZCFinishedZoneTail reads across a finished zone's
// zero tail: the tail is served from the shared zero slab, still
// zero-copy, and byte-identical to the copying path.
func TestSubmitReadZCFinishedZoneTail(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 40, 0)
		if err := v.FinishZone(0); err != nil {
			t.Fatalf("FinishZone: %v", err)
		}
		if !checkZCMatchesCopy(t, v, 16, v.ZoneSectors()-16) {
			t.Error("finished-zone tail read fell back to copying")
		}
	})
}

// TestSubmitReadZCTornEpochFallsBack bumps a pinned zone epoch between
// submit and wait: Wait must detect the torn pin, rerun through the
// copying path, and still return the right bytes.
func TestSubmitReadZCTornEpochFallsBack(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		want := make([]byte, 64*v.SectorSize())
		if err := v.Read(0, want); err != nil {
			t.Fatalf("Read: %v", err)
		}

		r := v.SubmitReadZC(0, 64)
		v.bumpZCEpoch(0) // simulate a relocation-map change racing the read
		if err := r.Wait(); err != nil {
			t.Fatalf("Wait after torn epoch: %v", err)
		}
		if r.ZeroCopy() {
			t.Error("torn-epoch read still claims zero-copy")
		}
		got := make([]byte, len(want))
		r.CopyTo(got)
		if !bytes.Equal(got, want) {
			t.Error("torn-epoch fallback returned wrong bytes")
		}
		r.Release()
		if st := v.Stats(); st.ZeroCopyFallbacks != 1 {
			t.Errorf("ZeroCopyFallbacks = %d, want 1", st.ZeroCopyFallbacks)
		}
	})
}

// TestSubmitReadZCTornDeviceSeqFallsBack tears a device-level pin (the
// zns zc sequence, here via sector corruption, which mutates payload in
// place) and checks the fallback re-reads the current content.
func TestSubmitReadZCTornDeviceSeqFallsBack(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		r := v.SubmitReadZC(0, 64)
		// Corrupt a sector in device zone 0 of every device: whichever
		// device serves the first unit, its pin is torn.
		for _, d := range devs {
			if err := d.CorruptSector(d.ZoneStart(0)); err != nil {
				t.Fatalf("CorruptSector: %v", err)
			}
		}
		if err := r.Wait(); err != nil {
			t.Fatalf("Wait after corruption: %v", err)
		}
		if r.ZeroCopy() {
			t.Error("torn-seq read still claims zero-copy")
		}
		want := make([]byte, 64*v.SectorSize())
		if err := v.Read(0, want); err != nil {
			t.Fatalf("Read: %v", err)
		}
		got := make([]byte, len(want))
		r.CopyTo(got)
		if !bytes.Equal(got, want) {
			t.Error("fallback bytes differ from the copying path after corruption")
		}
		r.Release()
	})
}

// TestSubmitReadZCRelocOverlay crashes device zone fills so recovery
// truncates a zone, then writes over the debris to drive burned-prefix
// relocation (the crash-differential cuts), and checks zero-copy reads
// overlay the relocation fragments correctly (views of the fragment
// cache) against the copying path ("ring") and against the devices,
// relocated payloads included, read directly ("direct").
func TestSubmitReadZCRelocOverlay(t *testing.T) {
	for _, ref := range zcRefs {
		ref := ref
		t.Run(ref.name, func(t *testing.T) {
			c := vclock.New()
			c.Run(func() {
				v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)
				runDiffWorkload(t, c, v, true, false)

				// The double hole in zone 1 forces recovery to truncate;
				// zone 1's uncut peers keep debris beyond the recovered
				// write pointer, and writing over it burns + relocates.
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
				v2, err := Mount(c, devs, DefaultConfig())
				if err != nil {
					t.Fatalf("Mount: %v", err)
				}
				zs := v2.ZoneSectors()
				for z := 0; z < v2.NumZones(); z++ {
					zd := v2.Zone(z)
					if zd.State == zns.ZoneFull {
						continue
					}
					rel := zd.WP - int64(z)*zs
					if n := min(int64(32), zs-rel); n > 0 {
						mustWriteV(t, v2, zd.WP, int(n), 0)
					}
				}
				if v2.RelocationCount() == 0 {
					t.Fatal("no relocations; overlay path untested")
				}
				for z := 0; z < v2.NumZones(); z++ {
					zd := v2.Zone(z)
					if n := zd.WP - int64(z)*zs; n > 0 {
						checkZCMatches(t, ref.read, v2, devs, int64(z)*zs, n)
					}
				}
				if st := v2.Stats(); st.ZeroCopyReads == 0 {
					t.Error("no zero-copy reads recorded over relocated zones")
				}
			})
		})
	}
}

// TestSubmitReadZCDegraded reads through reconstruction with a failed
// device: degraded pieces are materialized (copied) but the request
// still completes with correct content.
func TestSubmitReadZCDegraded(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 128, 0)
		if err := v.FailDevice(2); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		got, _ := zcReadBack(t, v, 0, 128)
		if !bytes.Equal(got, lbaPattern(v, 0, 128)) {
			t.Error("degraded zero-copy read returned wrong bytes")
		}
	})
}

// TestSubmitReadZCDiscardDataFallsBack runs against DiscardData devices
// (no payload materialized): every gap takes the per-piece copying
// fallback via ErrZCUnavailable, and assembly still covers the range.
func TestSubmitReadZCDiscardDataFallsBack(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		dcfg := testDevConfig()
		dcfg.DiscardData = true
		v, _, _ := newParityVol(t, c, dcfg, ParityLog)
		if err := v.Write(0, make([]byte, 64*v.SectorSize()), 0); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, _ := zcReadBack(t, v, 0, 64)
		for i, b := range got {
			if b != 0 {
				t.Fatalf("DiscardData read: non-zero byte at %d", i)
			}
		}
	})
}
