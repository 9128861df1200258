package raizn

import "testing"

// Checked-in allocs/op baselines for the SubmitWrite hot path with
// tracing disabled. The obs span plumbing threads nil span handles
// through the whole write path, and that must stay literally free: if
// one of these numbers goes up, something put an allocation (or a live
// span) on the disabled-tracing path. Lower the baseline when the write
// path genuinely improves; raise it only for a deliberate trade-off.
var submitWriteAllocBaseline = []struct {
	name    string
	sectors int64
	allocs  int64
}{
	{"4K", 1, 27},
	{"4-stripe", 16 * 16, 100}, // StripeUnitSectors(16) * 16
}

// TestSubmitWriteAllocGuard enforces the zero-allocation-when-disabled
// tracing property by benchmarking the coalesced write path and
// comparing allocs/op against the committed baseline. CI runs this as a
// dedicated non-race step; the race detector perturbs allocation
// counts, so the guard skips itself under -race.
func TestSubmitWriteAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in -short mode")
	}
	for _, c := range submitWriteAllocBaseline {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(func(b *testing.B) {
				benchSeqWrite(b, DefaultConfig(), c.sectors)
			})
			got := r.AllocsPerOp()
			switch {
			case got > c.allocs:
				t.Errorf("SubmitWrite %s: %d allocs/op, baseline %d — the disabled-tracing hot path regressed",
					c.name, got, c.allocs)
			case got < c.allocs:
				t.Logf("SubmitWrite %s: %d allocs/op beats baseline %d; consider lowering it", c.name, got, c.allocs)
			}
		})
	}
}

// Checked-in allocs/op and B/op baselines for the SubmitRead path every
// workload uses, with tracing disabled. The caller supplies the payload
// buffer, so only fixed plumbing (futures, the staged SQE group,
// completion walker) may allocate. B/op is the highest value measured
// at GOMAXPROCS 1 to 8: it is an average, and pool refills under more
// Ps add a byte. Lower a baseline when the read path genuinely
// improves; raise it only for a deliberate trade-off.
var submitReadAllocBaseline = []struct {
	name          string
	sectors       int64
	allocs, bytes int64
}{
	{"1-unit", 16, 21, 1269},
	{"4-unit", 64, 31, 2208},
}

// TestSubmitReadAllocGuard holds the read path to its baseline and
// proves it allocates no payload buffer: B/op grows by less than 2 KiB
// from the 1-unit to the 4-unit read, far below the 192 KiB of extra
// payload a copy into an internal buffer would cost.
func TestSubmitReadAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in -short mode")
	}
	var perOp [2]int64
	for i, c := range submitReadAllocBaseline {
		r := testing.Benchmark(func(b *testing.B) { benchSeqReadCopy(b, DefaultConfig(), c.sectors) })
		if got := r.AllocsPerOp(); got > c.allocs {
			t.Errorf("SubmitRead %s: %d allocs/op, baseline %d — the read path regressed", c.name, got, c.allocs)
		}
		if got := r.AllocedBytesPerOp(); got > c.bytes {
			t.Errorf("SubmitRead %s: %d B/op, baseline %d — the read path regressed", c.name, got, c.bytes)
		}
		perOp[i] = r.AllocedBytesPerOp()
	}
	if d := perOp[1] - perOp[0]; d >= 2048 {
		t.Errorf("SubmitRead: B/op grew by %d from the 1-unit to the 4-unit read — payload is being allocated", d)
	}
}

// TestRecorderAllocGuard extends the write-path guard to the flight
// recorder: attaching a recorder (as every production array under
// observation does) must cost zero extra allocs/op on the non-sampled
// path. With tracing disabled — the hot-path default the baseline above
// is measured at — Begin returns nil spans and the observer is never
// consulted, so the recorder rides along for free; this guard pins that.
func TestRecorderAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in -short mode")
	}
	for _, c := range submitWriteAllocBaseline {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(func(b *testing.B) {
				benchSeqWriteRecorder(b, c.sectors)
			})
			got := r.AllocsPerOp()
			switch {
			case got > c.allocs:
				t.Errorf("SubmitWrite+recorder %s: %d allocs/op, tracing-disabled baseline %d — attaching a flight recorder must be free on the non-sampled path",
					c.name, got, c.allocs)
			case got < c.allocs:
				t.Logf("SubmitWrite+recorder %s: %d allocs/op beats baseline %d", c.name, got, c.allocs)
			}
		})
	}
}
