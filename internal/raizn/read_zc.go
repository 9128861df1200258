package raizn

import (
	"raizn/internal/obs"
	"raizn/internal/zns"
)

// Zero-copy reads. SubmitReadZC serves a logical range without copying
// payload into caller buffers: device-resident ranges become views of
// device memory (CmdReadZC SQEs drained through the ring), relocation-overlay
// ranges become views of the fragment cache, and only the pieces that
// cannot be aliased — degraded reconstruction, ranges the device cannot
// serve zero-copy — are materialized in a pooled arena. The simulated
// read cost (pipe occupancy, latency) is identical to SubmitRead.
//
// Views are pinned optimistically, at two layers:
//
//   - each device view carries the physical zone's zc sequence, bumped
//     by anything that mutates or frees written payload in place (reset,
//     power-loss truncation, corruption, ZRWA overwrites);
//   - the whole request carries the touched logical zones' raizn zc
//     epochs (Volume.zcEpoch), bumped on relocation-map mutations and
//     device-table swaps.
//
// Wait re-validates every pin after the sub-IOs complete; a torn pin
// (epoch-based reclamation: the epoch moved on, so the view may be
// stale) silently falls back to one copying SubmitRead retry.

// zcPart is one ordered segment of the assembled result.
type zcPart struct {
	off  int64  // sector offset relative to the request start
	data []byte // view (device memory, reloc cache, zero slab, or arena)
}

// zcPin pins one device view: valid while the physical zone's zc
// sequence is unchanged.
type zcPin struct {
	d    *zns.Device
	zone int
	seq  uint64
}

type zcGap struct{ lo, hi int64 }

// zcZeroSlab backs reads of a finished zone's tail beyond the write
// pointer, which reads as zeroes. Shared and never written.
var zcZeroSlab = make([]byte, 256<<10)

// ZCRead is an in-flight zero-copy read. Wait blocks for the sub-IOs
// and validates the pins; Segs then exposes the result as ordered
// segments covering the requested range. Release returns the (pooled)
// request object; the segments must not be used afterwards — nor after
// anything that bumps the pinned epochs (they remain safe memory, but
// may no longer reflect volume content).
type ZCRead struct {
	v   *Volume
	sp  *obs.Span
	lba int64
	n   int64 // sectors
	err error

	futs    []subIO
	parts   []zcPart
	segs    [][]byte
	pins    []zcPin
	zcZ     []int    // captured logical-zone epochs...
	zcV     []uint64 // ...and their values at plan time
	pending []int    // staged CmdReadZC index -> parts index

	gapA, gapB []zcGap // overlay-splitting scratch

	arenaBuf []byte // piece-fallback arena (block recycled across reads)
	arenaOff int
	fb       []byte // full-copy fallback buffer

	fellBack bool
	done     bool
}

func (v *Volume) getZCRead() *ZCRead {
	if x := v.zcPool.Get(); x != nil {
		r := x.(*ZCRead)
		r.futs = r.futs[:0]
		r.parts = r.parts[:0]
		r.segs = r.segs[:0]
		r.pins = r.pins[:0]
		r.zcZ = r.zcZ[:0]
		r.zcV = r.zcV[:0]
		r.pending = r.pending[:0]
		r.arenaOff = 0
		r.err = nil
		r.sp = nil
		r.fellBack = false
		r.done = false
		return r
	}
	return &ZCRead{}
}

// arena carves n bytes of scratch for a piece that must be copied. Old
// blocks stay referenced by the parts carved from them, so growing is
// just starting a fresh block.
func (r *ZCRead) arena(n int) []byte {
	if len(r.arenaBuf)-r.arenaOff < n {
		r.arenaBuf = make([]byte, max(n, 64<<10))
		r.arenaOff = 0
	}
	b := r.arenaBuf[r.arenaOff : r.arenaOff+n]
	r.arenaOff += n
	return b
}

// SubmitReadZC submits a zero-copy read of nSectors at lba. It never
// returns nil; submit-time validation errors surface from Wait.
func (v *Volume) SubmitReadZC(lba, nSectors int64) *ZCRead {
	r := v.getZCRead()
	r.v, r.lba, r.n = v, lba, nSectors
	if nSectors <= 0 {
		r.err = ErrUnaligned
		return r
	}
	if lba < 0 || lba+nSectors > v.lt.numSectors() {
		r.err = ErrOutOfRange
		return r
	}
	ss := int64(v.sectorSize)
	v.stats.logicalReadBytes.Add(nSectors * ss)
	r.sp = v.tracer.Begin(obs.OpRead, lba, nSectors*ss)

	// Pin the touched zones' raizn zc epochs before looking at any state
	// they guard (optimistic concurrency: validate after completion).
	for z := v.lt.zoneOf(lba); z <= v.lt.zoneOf(lba+nSectors-1); z++ {
		r.zcZ = append(r.zcZ, z)
		r.zcV = append(r.zcV, v.zcEpoch[z].Load())
	}

	stage := newReadStage()
	pos, rem := lba, nSectors
	for rem > 0 {
		z := v.lt.zoneOf(pos)
		n := min(v.lt.zoneStart(z)+v.lt.zoneSectors()-pos, rem)
		if err := v.planZCZone(r, z, pos, n, stage); err != nil {
			r.err = err
			break
		}
		pos += n
		rem -= n
	}
	if r.err == nil {
		r.drainZC(stage)
	} else {
		recycleReadStage(stage) // nothing flushed; drop the staged SQEs
	}
	r.sp.Mark(obs.PhaseSubmit)
	return r
}

// planZCZone plans the [pos, pos+n) portion inside logical zone z.
func (v *Volume) planZCZone(r *ZCRead, z int, pos, n int64, stage *readStage) error {
	lz := v.zones[z]
	lz.mu.Lock()
	wp := lz.submittedWP
	state := lz.state
	lz.mu.Unlock()

	ss := int64(v.sectorSize)
	off := pos - v.lt.zoneStart(z)
	if off+n > wp && state != zns.ZoneFull {
		return ErrReadBeyondWP
	}
	base := pos - r.lba
	if off+n > wp {
		// Finished zone's tail beyond the write pointer reads as zeroes:
		// serve views of the shared zero slab.
		zeroFrom := max(wp-off, 0)
		slabSec := int64(len(zcZeroSlab)) / ss
		for o := zeroFrom; o < n; {
			c := min(n-o, slabSec)
			r.parts = append(r.parts, zcPart{off: base + o, data: zcZeroSlab[:c*ss]})
			o += c
		}
		if zeroFrom == 0 {
			return nil
		}
		n = zeroFrom
	}

	stripeSec := v.lt.stripeSectors()
	for n > 0 {
		s := off / stripeSec
		inStripe := off % stripeSec
		u := int(inStripe / v.lt.su)
		intra := inStripe % v.lt.su
		pieceLen := min(v.lt.su-intra, n)
		if err := v.planZCPiece(r, z, s, u, intra, intra+pieceLen, base, wp, stage); err != nil {
			return err
		}
		base += pieceLen
		off += pieceLen
		n -= pieceLen
	}
	return nil
}

// planZCPiece plans intra offsets [a, b) of data unit u in stripe s of
// zone z; base is the request-relative sector offset of intra a.
func (v *Volume) planZCPiece(r *ZCRead, z int, s int64, u int, a, b, base, zoneWP int64, stage *readStage) error {
	ss := int64(v.sectorSize)
	dev := v.lt.dataDev(z, s, u)
	d := v.devForZone(dev, z)
	if d == nil {
		// Degraded piece: reconstruct into arena scratch (copying).
		dst := r.arena(int((b - a) * ss))
		fut := v.degradedReadPiece(r.sp, z, s, u, a, b, dst, zoneWP)
		r.futs = append(r.futs, subIO{dev: dev, fut: fut})
		r.parts = append(r.parts, zcPart{off: base, data: dst})
		return nil
	}

	lbaA := v.lt.stripeStart(z, s) + int64(u)*v.lt.su + a
	lbaB := lbaA + (b - a)
	gaps := append(r.gapA[:0], zcGap{lbaA, lbaB})
	v.relocMu.Lock()
	for _, f := range v.reloc[z] {
		if f.endLBA <= lbaA || f.startLBA >= lbaB {
			continue
		}
		// Overlay: a direct view of the fragment cache (fragments are
		// replaced wholesale, never mutated in place; a map change bumps
		// the zone's zc epoch and tears this read).
		lo, hi := max(f.startLBA, lbaA), min(f.endLBA, lbaB)
		r.parts = append(r.parts, zcPart{
			off:  base + (lo - lbaA),
			data: f.data[(lo-f.startLBA)*ss : (hi-f.startLBA)*ss],
		})
		ng := r.gapB[:0]
		for _, g := range gaps {
			if hi <= g.lo || lo >= g.hi {
				ng = append(ng, g)
				continue
			}
			if g.lo < lo {
				ng = append(ng, zcGap{g.lo, lo})
			}
			if hi < g.hi {
				ng = append(ng, zcGap{hi, g.hi})
			}
		}
		r.gapA, r.gapB = ng, gaps[:0]
		gaps = ng
	}
	v.relocMu.Unlock()
	r.gapA = gaps

	for _, g := range gaps {
		intraLo := a + (g.lo - lbaA)
		pba := int64(z)*v.lt.physZoneSize + s*v.lt.su + intraLo
		nSec := g.hi - g.lo
		child := r.sp.Child(obs.OpDevRead, dev, pba, nSec*ss)
		r.parts = append(r.parts, zcPart{off: base + (g.lo - lbaA)})
		r.pending = append(r.pending, len(r.parts)-1)
		stage.push(dev, d, zns.Cmd{Op: zns.CmdReadZC, Sector: pba, NSectors: nSec, Span: child})
	}
	return nil
}

// drainZC drains the staged CmdReadZC SQEs through the ring, one group
// per device, wiring each returned view into the part reserved for it.
// A range the device could not serve zero-copy gets a plain copying
// read into arena scratch, drained as a second group to the same device.
func (r *ZCRead) drainZC(stage *readStage) {
	v := r.v
	b := v.rings.Batch()
	for dev := 0; dev < v.lt.n; dev++ {
		var d *zns.Device
		stage.idx = stage.idx[:0]
		for i := range stage.cmds {
			if stage.devs[i] == dev {
				b.Push(stage.cmds[i])
				stage.idx = append(stage.idx, i)
				d = stage.dh[i]
			}
		}
		if d == nil {
			continue
		}
		group := b.Flush(d, dev)
		for k := range group {
			c := &group[k]
			pi := r.pending[stage.idx[k]]
			if c.Err != nil {
				// ErrZCUnavailable or a late rejection: copying fallback
				// (whose own error, if any, surfaces through the future).
				dst := r.arena(int(c.NSectors) * v.sectorSize)
				child := r.sp.Child(obs.OpDevRead, dev, c.Sector, int64(len(dst)))
				b.Push(zns.Cmd{Op: zns.CmdRead, Sector: c.Sector, Data: dst, Span: child})
				r.parts[pi].data = dst
				continue
			}
			r.pins = append(r.pins, zcPin{d: d, zone: c.Zone, seq: c.Seq})
			r.futs = append(r.futs, subIO{dev: dev, fut: c.Fut})
			r.parts[pi].data = c.Data
		}
		if b.Pending() {
			for _, c := range b.Flush(d, dev) {
				r.futs = append(r.futs, subIO{dev: dev, fut: c.Fut})
			}
		}
	}
	b.Submit()
	recycleReadStage(stage)
}

// Wait blocks until every sub-IO completed, validates the pins, and
// assembles the segments. A torn pin or sub-IO failure falls back to
// one copying SubmitRead retry; its result (a single segment) is then
// served instead, so Wait returning nil always means Segs covers the
// requested range consistently.
func (r *ZCRead) Wait() error {
	if r.done {
		return r.err
	}
	r.done = true
	if r.err != nil {
		r.sp.End(r.err)
		return r.err
	}
	err := r.v.awaitReads(r.futs)
	if err == nil && r.valid() {
		r.assemble()
		r.v.stats.zcReads.Add(1)
		r.sp.End(nil)
		return nil
	}
	// Epoch torn underneath us (or a sub-IO failed, e.g. a device died
	// mid-flight): retry once through the copying path, which handles
	// degraded mode and read-repair on its own.
	r.v.stats.zcFallbacks.Add(1)
	r.fellBack = true
	need := int(r.n) * r.v.sectorSize
	if cap(r.fb) < need {
		r.fb = make([]byte, need)
	}
	buf := r.fb[:need]
	if ferr := r.v.SubmitRead(r.lba, buf).Wait(); ferr != nil {
		r.err = ferr
		r.sp.End(ferr)
		return ferr
	}
	r.segs = append(r.segs[:0], buf)
	r.sp.End(nil)
	return nil
}

// valid re-checks every pin captured at plan time.
func (r *ZCRead) valid() bool {
	for i := range r.pins {
		p := &r.pins[i]
		if !p.d.ZCValid(p.zone, p.seq) {
			return false
		}
	}
	for i, z := range r.zcZ {
		if r.v.zcEpoch[z].Load() != r.zcV[i] {
			return false
		}
	}
	return true
}

// assemble orders the parts into the exported segment list. Parts are
// few and nearly sorted (planning walks the range in order; only ring
// drain and overlay splitting reorder), so insertion sort.
func (r *ZCRead) assemble() {
	parts := r.parts
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j].off < parts[j-1].off; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	segs := r.segs[:0]
	for i := range parts {
		if len(parts[i].data) > 0 {
			segs = append(segs, parts[i].data)
		}
	}
	r.segs = segs
}

// Segs returns the result as ordered segments covering the requested
// range. Only valid after Wait returned nil and until Release (or until
// a pinned epoch moves on).
func (r *ZCRead) Segs() [][]byte { return r.segs }

// ZeroCopy reports whether the request was served from views (false:
// the copying fallback ran).
func (r *ZCRead) ZeroCopy() bool { return r.done && r.err == nil && !r.fellBack }

// CopyTo copies the assembled result into dst, returning the bytes
// copied. Convenience for callers that sometimes need a contiguous
// buffer anyway.
func (r *ZCRead) CopyTo(dst []byte) int {
	n := 0
	for _, s := range r.segs {
		n += copy(dst[n:], s)
	}
	return n
}

// Release drops the view references and recycles the request object.
// The ZCRead and its segments must not be used afterwards.
func (r *ZCRead) Release() {
	v := r.v
	if v == nil {
		return
	}
	for i := range r.parts {
		r.parts[i].data = nil
	}
	for i := range r.segs {
		r.segs[i] = nil
	}
	for i := range r.futs {
		r.futs[i] = subIO{}
	}
	for i := range r.pins {
		r.pins[i] = zcPin{}
	}
	v.zcPool.Put(r)
}
