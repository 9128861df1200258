package raizn

import (
	"bytes"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func TestDegradedReadFullStripes(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 256, 0) // full zone
		if err := v.FailDevice(2); err != nil {
			t.Fatal(err)
		}
		if v.Degraded() != 2 {
			t.Errorf("Degraded() = %d", v.Degraded())
		}
		checkReadV(t, v, 0, 256)
		// Odd-granularity reads across the missing unit.
		checkReadV(t, v, 3, 50)
		checkReadV(t, v, 100, 17)
	})
}

func TestDegradedReadPartialStripe(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 40, 0) // partial stripe: lives in the buffer
		v.FailDevice(v.lt.dataDev(0, 0, 1))
		checkReadV(t, v, 0, 40)
	})
}

func TestDegradedWriteContinues(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 30, 0)
		v.FailDevice(0)
		mustWriteV(t, v, 30, 100, 0) // degraded writes omit device 0
		checkReadV(t, v, 0, 130)
	})
}

func TestDegradedWriteThenRemountDegraded(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		v.FailDevice(1)
		mustWriteV(t, v, 0, 128, 0)
		v.Flush()
		// Remount without device 1 entirely.
		avail := []*zns.Device{devs[0], devs[2], devs[3], devs[4]}
		v2, err := Mount(c, avail, DefaultConfig())
		if err != nil {
			t.Fatalf("degraded Mount: %v", err)
		}
		if v2.Degraded() != 1 {
			t.Errorf("Degraded() = %d, want 1", v2.Degraded())
		}
		checkReadV(t, v2, 0, 128)
	})
}

func TestDegradedMountPartialStripeUsesPartialParity(t *testing.T) {
	// §5.1's recovery story: crash with a partial stripe, then the
	// device holding one of its data units fails. The stripe buffer is
	// reconstructed from the partial-parity logs.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 40, 0) // units 0,1 full; unit 2 half
		v.Flush()
		victim := v.lt.dataDev(0, 0, 1)
		avail := make([]*zns.Device, 0, 4)
		for i, d := range devs {
			if i != victim {
				avail = append(avail, d)
			}
		}
		v2, err := Mount(c, avail, DefaultConfig())
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if wp := v2.Zone(0).WP; wp != 40 {
			t.Errorf("WP = %d, want 40 (from pp logs)", wp)
		}
		checkReadV(t, v2, 0, 40)
		// Appends must continue correctly (buffer reconstructed).
		mustWriteV(t, v2, 40, 24, 0) // completes the stripe
		checkReadV(t, v2, 0, 64)
	})
}

func TestSecondFailureGoesReadOnly(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		v.FailDevice(0)
		if err := v.FailDevice(1); err != ErrDegraded {
			t.Errorf("second failure error = %v", err)
		}
		if !v.ReadOnly() {
			t.Error("volume should be read-only after double failure")
		}
		if err := v.Write(64, lbaPattern(v, 64, 1), 0); err != ErrReadOnly {
			t.Errorf("write on read-only volume error = %v", err)
		}
	})
}

func TestRebuildRestoresRedundancy(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs := v.ZoneSectors()
		mustWriteV(t, v, 0, int(zs), 0) // full zone
		mustWriteV(t, v, zs, 100, 0)    // partial zone
		mustWriteV(t, v, 2*zs, 37, 0)   // partial stripe tail
		v.FailDevice(3)
		checkReadV(t, v, 0, int(zs))

		replacement := zns.NewDevice(c, testDevConfig())
		stats, err := v.ReplaceDevice(replacement)
		if err != nil {
			t.Fatalf("ReplaceDevice: %v", err)
		}
		if v.Degraded() != -1 {
			t.Errorf("still degraded after rebuild: %d", v.Degraded())
		}
		if stats.Zones == 0 || stats.BytesWritten == 0 {
			t.Errorf("suspicious rebuild stats: %+v", stats)
		}
		checkReadV(t, v, 0, int(zs))
		checkReadV(t, v, zs, 100)
		checkReadV(t, v, 2*zs, 37)

		// Redundancy is back: fail a different device and read again.
		v.FailDevice(0)
		checkReadV(t, v, 0, int(zs))
		checkReadV(t, v, zs, 100)
		checkReadV(t, v, 2*zs, 37)
	})
}

func TestRebuildOnlyCopiesValidData(t *testing.T) {
	// RAIZN's TTR advantage (§6.2): rebuild writes scale with valid
	// data, not device capacity.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0) // one stripe in one zone; rest empty
		v.FailDevice(2)
		replacement := zns.NewDevice(c, testDevConfig())
		stats, err := v.ReplaceDevice(replacement)
		if err != nil {
			t.Fatal(err)
		}
		// Device 2 held exactly one stripe unit (16 sectors).
		want := int64(16 * v.SectorSize())
		if stats.BytesWritten != want {
			t.Errorf("rebuild wrote %d bytes, want %d", stats.BytesWritten, want)
		}
	})
}

func TestRebuildTimeScalesWithData(t *testing.T) {
	measure := func(fillZones int) (elapsed int64) {
		c := vclock.New()
		c.Run(func() {
			v, _, _ := newParityVol(t, c, testDevConfig(), ParityLog)
			zs := v.ZoneSectors()
			for z := 0; z < fillZones; z++ {
				mustWriteV(t, v, int64(z)*zs, int(zs), 0)
			}
			v.FailDevice(1)
			stats, err := v.ReplaceDevice(zns.NewDevice(c, testDevConfig()))
			if err != nil {
				t.Fatal(err)
			}
			elapsed = int64(stats.Elapsed)
		})
		return elapsed
	}
	t1 := measure(1)
	t4 := measure(4)
	if t4 < 2*t1 {
		t.Errorf("rebuild time does not scale with data: 1 zone %d, 4 zones %d", t1, t4)
	}
}

func TestWritesDuringRebuildStayConsistent(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		zs := v.ZoneSectors()
		for z := int64(0); z < 4; z++ {
			mustWriteV(t, v, z*zs, int(zs), 0)
		}
		mustWriteV(t, v, 4*zs, 20, 0)
		v.FailDevice(4)

		replacement := zns.NewDevice(c, testDevConfig())
		done := c.NewFuture()
		c.Go(func() {
			_, err := v.ReplaceDevice(replacement)
			done.Complete(err)
		})
		// Concurrent writes while the rebuild runs.
		for i := int64(0); i < 10; i++ {
			mustWriteV(t, v, 4*zs+20+i*4, 4, 0)
		}
		if err := done.Wait(); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		for z := int64(0); z < 4; z++ {
			checkReadV(t, v, z*zs, int(zs))
		}
		checkReadV(t, v, 4*zs, 60)
		// Verify redundancy of the data written during rebuild.
		v.FailDevice(2)
		checkReadV(t, v, 4*zs, 60)
	})
}

func TestRebuildOfRemappedZone(t *testing.T) {
	// A zone with relocated fragments on a surviving device must remain
	// readable after an unrelated device is rebuilt; fragments on the
	// dead device are re-materialized at their arithmetic location.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		v.Flush()
		mustWriteV(t, v, 64, 48, 0)
		// Crash losing units 0,1 of stripe 1 but keeping unit 2 → zone
		// truncated to 64 and remapped (same scenario as the crash
		// test).
		d0 := v.lt.dataDev(0, 1, 0)
		d1 := v.lt.dataDev(0, 1, 1)
		for i, d := range devs {
			m := map[int]int64{}
			for z := 0; z < d.Config().NumZones; z++ {
				zd := d.Zone(z)
				m[z] = zd.WP - d.ZoneStart(z)
			}
			if i == d0 || i == d1 {
				m[0] = 16
			}
			if i == v.lt.parityDev(0, 1) {
				for mz := 0; mz < v.lt.mdZones; mz++ {
					z := v.lt.mdZoneIndex(mz)
					zd := d.Zone(z)
					m[z] = zd.PersistedWP - d.ZoneStart(z)
				}
			}
			d.PowerLossAt(m)
		}
		v2 := remount(t, c, devs)
		mustWriteV(t, v2, 64, 64, 0) // relocates the collision
		if v2.RelocationCount() == 0 {
			t.Fatal("expected relocations")
		}
		// Now fail and rebuild a device.
		v2.FailDevice(d0)
		replacement := zns.NewDevice(c, testDevConfig())
		if _, err := v2.ReplaceDevice(replacement); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		checkReadV(t, v2, 0, 128)
		v2.Flush()
		after := append([]*zns.Device(nil), devs...)
		after[d0] = replacement
		v3 := remount(t, c, after)
		checkReadV(t, v3, 0, 128)
	})
}

func TestDegradedDataMatchesParityReconstruction(t *testing.T) {
	// Cross-check: normal read vs degraded read of identical ranges.
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 200, 0)
		normal := make([]byte, 200*v.SectorSize())
		if err := v.Read(0, normal); err != nil {
			t.Fatal(err)
		}
		v.FailDevice(1)
		degraded := make([]byte, 200*v.SectorSize())
		if err := v.Read(0, degraded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(normal, degraded) {
			t.Error("degraded read differs from normal read")
		}
	})
}

// TestRebuildAbortsOnFailedReplacement runs ReplaceDevice with a
// replacement that fails before the rebuild starts and one that fails
// after its first zone: each must return an error and leave the array
// degraded on the same slot, still serving correct reads and writes,
// and a following replacement with a healthy device must succeed.
func TestRebuildAbortsOnFailedReplacement(t *testing.T) {
	for _, when := range []string{"before", "during"} {
		t.Run(when, func(t *testing.T) {
			runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
				zs := v.ZoneSectors()
				mustWriteV(t, v, 0, int(zs), 0) // full zone
				mustWriteV(t, v, zs, 100, 0)    // open zone, partial stripe
				const slot = 3
				v.FailDevice(slot)

				bad := zns.NewDevice(c, testDevConfig())
				if when == "before" {
					bad.Fail()
				} else {
					v.AttachHook(func(p obs.HookPoint) {
						if p.Name == "raizn.rebuild.zone" {
							bad.Fail()
						}
					})
				}
				if _, err := v.ReplaceDevice(bad); err == nil {
					t.Fatal("ReplaceDevice with a failing replacement succeeded")
				}
				v.AttachHook(nil)
				if got := v.Degraded(); got != slot {
					t.Fatalf("Degraded() = %d after aborted rebuild, want %d", got, slot)
				}
				if v.ReadOnly() {
					t.Fatal("aborted rebuild left the volume read-only")
				}
				checkReadV(t, v, 0, int(zs))
				checkReadV(t, v, zs, 100)
				mustWriteV(t, v, zs+100, 40, 0) // degraded write
				checkReadV(t, v, zs, 140)

				if _, err := v.ReplaceDevice(zns.NewDevice(c, testDevConfig())); err != nil {
					t.Fatalf("ReplaceDevice with a healthy device: %v", err)
				}
				if got := v.Degraded(); got != -1 {
					t.Fatalf("still degraded after rebuild: %d", got)
				}
				// Redundancy is back: lose another device and read again.
				v.FailDevice(0)
				checkReadV(t, v, 0, int(zs))
				checkReadV(t, v, zs, 140)
			})
		})
	}
}
