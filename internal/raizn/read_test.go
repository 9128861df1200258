package raizn

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// checkReadMatchesDirect reads [lba, lba+n) through SubmitRead and
// compares it with the same range read straight off the member devices
// (directRead), relocated payloads included.
func checkReadMatchesDirect(t *testing.T, v *Volume, devs []*zns.Device, lba, n int64) {
	t.Helper()
	got := make([]byte, n*int64(v.SectorSize()))
	if err := v.SubmitRead(lba, got).Wait(); err != nil {
		t.Fatalf("SubmitRead(%d, %d): %v", lba, n, err)
	}
	if !bytes.Equal(got, directRead(t, v, devs, lba, n)) {
		t.Errorf("SubmitRead(%d, %d): content differs from the devices read directly", lba, n)
	}
}

// TestSubmitReadMatchesDirect fills a volume with a mixed write pattern
// and checks sub-unit, unit-, stripe- and zone-spanning reads against
// the devices read directly.
func TestSubmitReadMatchesDirect(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)
		runDiffWorkload(t, c, v, true, false)
		zs := v.ZoneSectors()
		// Fill zones 0 and 1 to capacity so zone-crossing ranges are
		// legal (a non-full zone refuses reads beyond its WP).
		for z := int64(0); z < 2; z++ {
			wp := v.Zone(int(z)).WP
			mustWriteV(t, v, wp, int(z*zs+zs-wp), 0)
		}

		su := v.StripeSectors() / int64(v.NumDevices()-1)
		for _, rg := range [][2]int64{
			{0, 1},                          // single sector
			{3, su - 1},                     // sub-unit, unaligned start
			{0, su},                         // exact unit
			{su - 2, 5},                     // unit-crossing
			{0, v.StripeSectors()},          // exact stripe
			{su + 1, 2 * v.StripeSectors()}, // stripe-spanning, odd start
			{zs - 8, 16},                    // zone boundary crossing
			{7, 2 * zs},                     // multi-zone
		} {
			checkReadMatchesDirect(t, v, devs, rg[0], rg[1])
		}
	})
}

// TestSubmitReadValidation checks SubmitRead's submit-time errors.
func TestSubmitReadValidation(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 32, 0)
		ss := int64(v.SectorSize())
		for _, tc := range []struct {
			lba, bytes int64
			want       error
		}{
			{0, 0, ErrUnaligned},
			{0, ss + 1, ErrUnaligned},
			{-1, 4 * ss, ErrOutOfRange},
			{v.NumSectors(), 4 * ss, ErrOutOfRange},
			{64, 8 * ss, ErrReadBeyondWP}, // zone 0 has only 32 sectors written
		} {
			if err := v.SubmitRead(tc.lba, make([]byte, tc.bytes)).Wait(); !errors.Is(err, tc.want) {
				t.Errorf("SubmitRead(%d, %d bytes): err %v, want %v", tc.lba, tc.bytes, err, tc.want)
			}
		}
	})
}

// TestSubmitReadFinishedZoneTail reads across a finished zone's tail
// beyond the write pointer: the written pattern, then zeroes.
func TestSubmitReadFinishedZoneTail(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 40, 0)
		if err := v.FinishZone(0); err != nil {
			t.Fatalf("FinishZone: %v", err)
		}
		ss := int64(v.SectorSize())
		n := v.ZoneSectors() - 16
		got := make([]byte, n*ss)
		if err := v.SubmitRead(16, got).Wait(); err != nil {
			t.Fatalf("SubmitRead: %v", err)
		}
		want := append(lbaPattern(v, 16, 24), make([]byte, (n-24)*ss)...)
		if !bytes.Equal(got, want) {
			t.Error("finished-zone read: want the written pattern, then zeroes")
		}
	})
}

// TestSubmitReadRelocOverlay crashes device zone fills so recovery
// truncates a zone, then writes over the debris to drive burned-prefix
// relocation (§5.2), and checks reads overlay the relocation fragments
// correctly against the devices, relocated payloads included, read
// directly.
func TestSubmitReadRelocOverlay(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)
		runDiffWorkload(t, c, v, true, false)

		// The double hole in zone 1 forces recovery to truncate; zone 1's
		// uncut peers keep debris beyond the recovered write pointer, and
		// writing over it burns + relocates.
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
			if n := v2.Zone(z).WP - int64(z)*zs; n > 0 {
				checkReadMatchesDirect(t, v2, devs, int64(z)*zs, n)
			}
		}
	})
}

// TestSubmitReadDegraded reads through reconstruction with a failed
// device: the failed device's units are rebuilt from parity and the
// request still completes with the written content.
func TestSubmitReadDegraded(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 128, 0)
		if err := v.FailDevice(2); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		got := make([]byte, 128*int64(v.SectorSize()))
		if err := v.SubmitRead(0, got).Wait(); err != nil {
			t.Fatalf("SubmitRead: %v", err)
		}
		if !bytes.Equal(got, lbaPattern(v, 0, 128)) {
			t.Error("degraded read returned wrong bytes")
		}
	})
}

// TestCutGap checks the relocation overlay's range arithmetic: cutting a
// fragment out of the ranges left to read from a device.
func TestCutGap(t *testing.T) {
	for _, tc := range []struct {
		gaps   []gap
		lo, hi int64
		want   []gap
	}{
		{[]gap{{0, 16}}, 4, 8, []gap{{0, 4}, {8, 16}}},           // middle
		{[]gap{{0, 16}}, 0, 8, []gap{{8, 16}}},                   // prefix (burned-prefix relocation)
		{[]gap{{0, 16}}, 8, 20, []gap{{0, 8}}},                   // suffix, fragment overhangs
		{[]gap{{0, 16}}, 0, 16, nil},                             // fully relocated
		{[]gap{{0, 16}}, 16, 20, []gap{{0, 16}}},                 // disjoint
		{[]gap{{0, 4}, {8, 16}}, 2, 10, []gap{{0, 2}, {10, 16}}}, // spans two gaps
	} {
		if got := cutGap(tc.gaps, tc.lo, tc.hi); !slices.Equal(got, tc.want) {
			t.Errorf("cutGap(%v, %d, %d) = %v, want %v", tc.gaps, tc.lo, tc.hi, got, tc.want)
		}
	}
}
