package zns

import (
	"errors"

	"raizn/internal/obs"
)

// Zero-copy reads: instead of snapshotting the payload into a caller
// buffer at submit, the device hands out a subslice of the zone's
// backing array together with the zone's zc sequence number. The slice
// is a consistent view of the range as long as the sequence is
// unchanged; anything that mutates or frees written payload in place
// bumps it:
//
//   - zone reset (backing array detached),
//   - power loss / crash-clone cuts (tail zeroed in place),
//   - bit rot and CorruptSector (bytes flipped in place),
//   - ZRWA in-place overwrites.
//
// Ordinary writes only ever touch bytes at or beyond the write pointer,
// so views over written data stay intact across appends. A torn sequence
// never yields garbage memory — the old backing array is immutable once
// detached — it only means the view no longer reflects zone content, so
// callers re-read through the copying path.

// ErrZCUnavailable reports that a range cannot be served zero-copy
// (payload discarded or not materialized, or the range is not fully
// below the write pointer). Callers fall back to a copying read.
var ErrZCUnavailable = errors.New("zns: range not zero-copy readable")

// readZCApplyLocked applies a zero-copy read (CmdReadZC) of
// [sector, sector+nSectors): simulated cost (read-pipe occupancy,
// latency) is identical to Read, but the returned data aliases device
// memory instead of being copied. The view is pinned by (zone, seq): it
// reflects zone content only while ZCValid(zone, seq) holds. Latent
// media errors are delivered through the completion exactly as for Read.
// When the range cannot be served zero-copy the error is
// ErrZCUnavailable and no pipe time is charged. See readApplyLocked for
// the copying twin. Caller holds d.mu.
func (d *Device) readZCApplyLocked(sp *obs.Span, sector, nSectors int64) (data []byte, zone int, seq uint64, pio pendingIO, err error) {
	if d.failed {
		return nil, 0, 0, pendingIO{}, ErrDeviceFailed
	}
	z, off, err := d.checkSpan(sector, nSectors)
	if err != nil {
		return nil, 0, 0, pendingIO{}, err
	}
	zo := &d.zones[z]
	if zo.state == ZoneOffline {
		return nil, 0, 0, pendingIO{}, ErrZoneUnavailable
	}
	if off+nSectors > zo.wp && zo.state != ZoneFull {
		return nil, 0, 0, pendingIO{}, ErrReadBeyondWP
	}
	if d.cfg.DiscardData || zo.data == nil || off+nSectors > zo.wp {
		// Unmaterialized payloads and full-zone tails beyond the write
		// pointer (which read as zeroes) take the copying path.
		return nil, 0, 0, pendingIO{}, ErrZCUnavailable
	}

	ss := int64(d.cfg.SectorSize)
	d.hostReadBytes += nSectors * ss
	rerr := d.readFaultLocked(sector, nSectors)

	now := d.clk.Now()
	occ := d.slowLocked(d.cfg.ReadOpOverhead + d.xferTime(int(nSectors)*int(ss), d.cfg.ReadBandwidth))
	markPipe(sp, d.readBusy, now)
	media := reservePipe(&d.readBusy, now, occ)
	sp.MarkAt(obs.PhaseMedia, media)
	done := media + d.cfg.ReadLatency
	return zo.data[off*ss : (off+nSectors)*ss], z, zo.zcSeq, pendingIO{at: done, err: rerr, fuaZ: -1}, nil
}

// ZCValid reports whether a zero-copy view pinned at (zone, seq) still
// reflects the zone's content.
func (d *Device) ZCValid(z int, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.failed && z >= 0 && z < len(d.zones) && d.zones[z].zcSeq == seq
}
