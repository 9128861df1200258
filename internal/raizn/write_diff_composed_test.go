package raizn

import (
	"testing"

	"raizn/internal/vclock"
)

// TestWritePathDifferentialComposedChaos drives one composed chaos
// schedule — racing per-zone writers, silent rot plus a repairing scrub,
// a crash with fixed per-device cuts, a mid-life device failure,
// degraded writes, metadata GC and a zone
// reset+rewrite — and checks the logical outcome against the write
// sequence's model at both checkpoints (post-crash recovery and final
// state). This composes the separate concurrent/crash/degraded/scrub
// scenarios into one schedule so cross-feature interactions get the
// same coverage.
func TestWritePathDifferentialComposedChaos(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		v, devs, _ := newParityVol(t, c, testDevConfig(), ParityLog)

		// Phase 1: concurrent per-zone writers race on the devices.
		runDiffWorkload(t, c, v, false, false)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		ms := modelWorkload(v, false, false)

		// Phase 2: silent rot in zone 0 stripe 0, repaired by a scrub.
		if err := devs[1].CorruptSector(5); err != nil {
			t.Fatalf("corrupt: %v", err)
		}
		res, err := v.ScrubStripe(0, 0, true)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.Mismatch {
			t.Error("scrub missed the injected rot")
		}

		// Phase 3: crash with the fixed cuts (two holes in zone 1, one in
		// zone 2). Phase 1 flushed everything, and a device never loses
		// persisted sectors to a power cut, so recovery must keep every
		// zone's whole sequence.
		crashCuts(devs)
		v2, err := Mount(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Mount after crash: %v", err)
		}
		var ends []int64
		for _, m := range ms {
			ends = append(ends, m.end)
		}
		exp := recoveredExpect(t, "post-crash", v2, snapshotVolume(t, v2), ends, ends)

		// Phase 4: device failure, then degraded writes over the debris
		// (burn-split relocations on a degraded array).
		if err := v2.FailDevice(2); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		appendTails(t, v2, exp, 24)

		// Phase 5: metadata GC, then reset + rewrite + flush of zone 1.
		if err := v2.Maintain(); err != nil {
			t.Fatalf("Maintain: %v", err)
		}
		if err := v2.ResetZone(1); err != nil {
			t.Fatalf("ResetZone: %v", err)
		}
		zs := v2.ZoneSectors()
		mustWriteV(t, v2, zs, 40, 0)
		exp[1] = zoneExpect{wp: 40}
		if err := v2.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		before := v2.Stats().DegradedReads
		final := snapshotVolume(t, v2)
		for z := range exp {
			exp[z].persisted = exp[z].wp
			exp[z].remapped = final.zones[z].Remapped
		}
		checkSnapshot(t, "final", v2, final, exp)
		got, want := v2.Stats().DegradedReads-before, degradedPieces(v2, 2)
		if got != want || got == 0 {
			t.Errorf("final readback reconstructed %d pieces, model %d", got, want)
		}
		if final.relocs == 0 {
			t.Error("composed schedule produced no relocations; burn-split path untested")
		}
	})
}
