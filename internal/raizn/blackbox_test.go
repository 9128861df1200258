package raizn

import (
	"bytes"
	"fmt"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestBlackBoxPersistReadRoundtrip: the newest persisted box is the one
// read back, and generations strictly supersede.
func TestBlackBoxPersistReadRoundtrip(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		if _, ok := v.ReadBlackBox(); ok {
			t.Fatal("fresh volume reports a black box")
		}
		a := []byte(`{"schema":"raizn-blackbox/v1","label":"a"}`)
		b := []byte(`{"schema":"raizn-blackbox/v1","label":"b","frozen":true}`)
		if err := v.PersistBlackBox(a); err != nil {
			t.Fatalf("PersistBlackBox: %v", err)
		}
		if got, ok := v.ReadBlackBox(); !ok || !bytes.Equal(got, a) {
			t.Fatalf("ReadBlackBox = %q, %v; want first box", got, ok)
		}
		if err := v.PersistBlackBox(b); err != nil {
			t.Fatalf("PersistBlackBox: %v", err)
		}
		if got, ok := v.ReadBlackBox(); !ok || !bytes.Equal(got, b) {
			t.Fatalf("ReadBlackBox = %q, %v; want newest box", got, ok)
		}
		if err := v.PersistBlackBox(nil); err == nil {
			t.Fatal("PersistBlackBox accepted an empty box")
		}
	})
}

// TestBlackBoxSurvivesPowerLoss: the box is FUA-appended, so a flushed-
// only power loss immediately after persist must not lose it; Mount's
// metadata scan recovers it without any extra step.
func TestBlackBoxSurvivesPowerLoss(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		mustWriteV(t, v, 0, 64, 0)
		box := []byte(`{"schema":"raizn-blackbox/v1","label":"crashbox"}`)
		if err := v.PersistBlackBox(box); err != nil {
			t.Fatalf("PersistBlackBox: %v", err)
		}
		for _, d := range devs {
			d.PowerLossAt(nil) // only flushed data survives
		}
		v2 := remount(t, c, devs)
		got, ok := v2.ReadBlackBox()
		if !ok {
			t.Fatal("black box lost across power loss + remount")
		}
		if !bytes.Equal(got, box) {
			t.Fatalf("recovered box = %q, want %q", got, box)
		}

		// A second remount exercises consolidation: the mount-time
		// metadata rewrite must re-emit the box (checkpointRecords), not
		// erase it.
		v3 := remount(t, c, devs)
		if got, ok := v3.ReadBlackBox(); !ok || !bytes.Equal(got, box) {
			t.Fatalf("box lost by metadata consolidation: %q, %v", got, ok)
		}
	})
}

// TestRecoverBlackBoxStandalone: the forensics path reads the box off a
// single dead device without mounting the array, and reports ok=false on
// devices that never held one (the box goes to the first live device).
func TestRecoverBlackBoxStandalone(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		box := []byte(`{"schema":"raizn-blackbox/v1","label":"solo"}`)
		if err := v.PersistBlackBox(box); err != nil {
			t.Fatalf("PersistBlackBox: %v", err)
		}
		for _, d := range devs {
			d.PowerLossAt(nil)
		}
		got, ok, err := RecoverBlackBox(devs[0], DefaultConfig())
		if err != nil || !ok {
			t.Fatalf("RecoverBlackBox(dev0) = ok=%v err=%v", ok, err)
		}
		if !bytes.Equal(got, box) {
			t.Fatalf("recovered %q, want %q", got, box)
		}
		for i := 1; i < len(devs); i++ {
			if _, ok, err := RecoverBlackBox(devs[i], DefaultConfig()); err != nil || ok {
				t.Fatalf("RecoverBlackBox(dev%d) = ok=%v err=%v, want no box", i, ok, err)
			}
		}
	})
}

// TestBlackBoxRecoveryAtPersistenceCrashHooks drives PowerLossAt after
// every persist in a persist/write interleaving: whichever instant the
// power fails, recovery yields the newest completed box — never a torn
// or stale-over-newer one.
func TestBlackBoxRecoveryAtPersistenceCrashHooks(t *testing.T) {
	const rounds = 4
	for cut := 0; cut < rounds; cut++ {
		c := vclock.New()
		c.Run(func() {
			v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)
			var want []byte
			for r := 0; r < rounds; r++ {
				mustWriteV(t, v, int64(r*32), 32, 0)
				box := []byte(fmt.Sprintf(`{"schema":"raizn-blackbox/v1","label":"round-%d"}`, r))
				if err := v.PersistBlackBox(box); err != nil {
					t.Fatalf("PersistBlackBox round %d: %v", r, err)
				}
				want = box
				if r == cut {
					break
				}
			}
			for _, d := range devs {
				d.PowerLossAt(nil)
			}
			v2 := remount(t, c, devs)
			got, ok := v2.ReadBlackBox()
			if !ok {
				t.Fatalf("cut after round %d: box lost", cut)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cut after round %d: recovered %q, want newest %q", cut, got, want)
			}
		})
	}
}

// TestNewestFlightBoxSkipsTorn: a record whose payload was cut short by
// the crash (shorter than its recorded length) must never be surfaced.
func TestNewestFlightBoxSkipsTorn(t *testing.T) {
	intact := record{typ: recFlightBox, startLBA: 4, gen: 5, payload: []byte("good")}
	torn := record{typ: recFlightBox, startLBA: 100, gen: 9, payload: []byte("shrt")}
	empty := record{typ: recFlightBox, startLBA: 0, gen: 11}
	other := record{typ: recResetWAL, startLBA: 3, gen: 20, payload: []byte("xyz")}

	best := newestFlightBox([]record{intact, torn, empty, other})
	if best == nil || best.gen != 5 {
		t.Fatalf("newestFlightBox picked %+v, want the intact gen-5 record", best)
	}
	if best := newestFlightBox([]record{torn, empty}); best != nil {
		t.Fatalf("newestFlightBox surfaced a torn/empty record: %+v", best)
	}
}
