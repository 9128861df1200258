package raizn

import (
	"math"
	"testing"
	"time"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// hostileRecords are metadata headers whose payload length is negative,
// zero where a record must carry payload, or too large to address. Each
// once made the mount-time scan loop forever or walk backwards. meta
// places the header in per-block metadata (the inline-meta record form)
// instead of a header sector.
var hostileRecords = []struct {
	name string
	rec  record
	meta bool
}{
	{"reloc-end-before-start", record{typ: recRelocData, startLBA: 10, endLBA: 9, gen: 1}, false},
	{"reloc-length-overflows", record{typ: recRelocData, startLBA: math.MinInt64, endLBA: 1, gen: 1}, false},
	{"reloc-length-huge", record{typ: recRelocData, startLBA: 0, endLBA: math.MaxInt64, gen: 1}, false},
	{"flightbox-negative-length", record{typ: recFlightBox, startLBA: -8192, gen: 1}, false},
	{"flightbox-length-huge", record{typ: recFlightBox, startLBA: math.MaxInt64, gen: 1}, false},
	{"meta-pp-empty", record{typ: recPartialParity, startLBA: 5, endLBA: 5, gen: 1}, true},
	{"meta-pp-end-before-start", record{typ: recPartialParity, startLBA: 5, endLBA: 2, gen: 1}, true},
}

// TestMountHostileMetadataRecord appends one hostile record to device
// 0's open general metadata zone of a flushed array and remounts: Mount
// must return, without a panic and with the data intact.
func TestMountHostileMetadataRecord(t *testing.T) {
	for _, tc := range hostileRecords {
		t.Run(tc.name, func(t *testing.T) {
			// A looping scan also allocates without bound: stop the
			// whole binary rather than let it exhaust memory.
			watchdog := time.AfterFunc(30*time.Second, func() {
				panic("Mount on a hostile metadata record did not return")
			})
			defer watchdog.Stop()
			c := vclock.New()
			c.Run(func() {
				v, devs, cfg := newParityVol(t, c, extDevConfig(), ParityLog)
				mustWriteV(t, v, 0, 100, 0)
				v.Flush()
				z := v.md[0].active[mdGeneral]
				var fut *vclock.Future
				if tc.meta {
					_, fut = devs[0].AppendMeta(z, make([]byte, v.SectorSize()), tc.rec.encodeHeaderMeta(), zns.FUA)
				} else {
					_, fut = devs[0].Append(z, tc.rec.encode(v.SectorSize()), zns.FUA)
				}
				if err := fut.Wait(); err != nil {
					t.Fatalf("append hostile record: %v", err)
				}
				v2, err := Mount(c, devs, cfg)
				if err != nil {
					t.Fatalf("Mount: %v", err)
				}
				checkReadV(t, v2, 0, 100)
			})
		})
	}
}
