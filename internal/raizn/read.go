package raizn

import (
	"errors"
	"sync"

	"raizn/internal/obs"
	"raizn/internal/parity"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// SubmitRead fills buf starting at lba. Reads may span stripes and
// logical zones. Reads of a failed device's stripe units are served by
// reconstruction (degraded read, §4.2); ranges relocated by crash
// recovery are served from the relocation map (§5.2).
func (v *Volume) SubmitRead(lba int64, buf []byte) *vclock.Future {
	if len(buf) == 0 || len(buf)%v.sectorSize != 0 {
		return v.clk.Completed(ErrUnaligned)
	}
	nSectors := int64(len(buf) / v.sectorSize)
	if lba < 0 || lba+nSectors > v.lt.numSectors() {
		return v.clk.Completed(ErrOutOfRange)
	}

	v.stats.logicalReadBytes.Add(int64(len(buf)))
	// Root span of the request; nil (and free) while tracing is disabled.
	sp := v.tracer.Begin(obs.OpRead, lba, int64(len(buf)))
	var futs []subIO
	// Device sub-reads are staged and drained per device as one SQ group
	// (see drainReadStage).
	stage := newReadStage()
	ss := int64(v.sectorSize)
	pos := lba
	out := buf
	for len(out) > 0 {
		z := v.lt.zoneOf(pos)
		zoneEnd := v.lt.zoneStart(z) + v.lt.zoneSectors()
		n := zoneEnd - pos
		if avail := int64(len(out)) / ss; n > avail {
			n = avail
		}
		if err := v.readZonePortion(sp, z, pos, out[:n*ss], &futs, stage); err != nil {
			sp.End(err)
			v.drainReadStage(stage, &futs) // deliver already-staged SQEs
			return v.clk.Completed(err)
		}
		pos += n
		out = out[n*ss:]
	}
	v.drainReadStage(stage, &futs)
	sp.Mark(obs.PhaseSubmit)

	result := v.clk.NewFuture()
	v.clk.Go(func() {
		err := v.awaitReads(futs)
		sp.End(err)
		result.Complete(err)
	})
	return result
}

// awaitReads waits for read sub-IOs; a device death mid-read is returned
// as an error (the caller should retry, which will take the degraded
// path).
func (v *Volume) awaitReads(futs []subIO) error {
	var firstErr error
	for _, s := range futs {
		err := s.fut.Wait()
		if err == nil {
			continue
		}
		v.noteDeviceError(s.dev, err)
		if errors.Is(err, zns.ErrReadMedium) && s.repair != nil && v.Degraded() < 0 {
			// Latent sector error on a foreground read: reconstruct the
			// whole piece from parity + surviving units (§4.2 machinery).
			c := s.repair
			if rerr := v.degradedReadPiece(nil, c.z, c.s, c.u, c.a, c.b, c.dst, c.wp).Wait(); rerr == nil {
				v.stats.readErrorRepairs.Add(1)
				continue
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// readZonePortion plans the sub-reads for [pos, pos+len) inside zone z.
func (v *Volume) readZonePortion(sp *obs.Span, z int, pos int64, out []byte, futs *[]subIO, stage *readStage) error {
	lz := v.zones[z]
	lz.mu.Lock()
	// Read against the submitted write pointer: sectors a concurrent
	// write has claimed but not yet submitted to the devices are not
	// readable (their payload may still be mid-pipeline).
	wp := lz.submittedWP
	state := lz.state
	lz.mu.Unlock()

	ss := int64(v.sectorSize)
	off := pos - v.lt.zoneStart(z)
	n := int64(len(out)) / ss
	if off+n > wp && state != zns.ZoneFull {
		return ErrReadBeyondWP
	}

	// Zero-fill anything beyond the write pointer (finished zones).
	if off+n > wp {
		zeroFrom := wp - off
		if zeroFrom < 0 {
			zeroFrom = 0
		}
		tail := out[zeroFrom*ss:]
		for i := range tail {
			tail[i] = 0
		}
		if zeroFrom == 0 {
			return nil
		}
		n = zeroFrom
		out = out[:n*ss]
	}

	// Split into per-stripe-unit pieces.
	stripeSec := v.lt.stripeSectors()
	for n > 0 {
		s := off / stripeSec
		inStripe := off % stripeSec
		u := int(inStripe / v.lt.su)
		intra := inStripe % v.lt.su
		pieceLen := v.lt.su - intra
		if pieceLen > n {
			pieceLen = n
		}
		if err := v.readPiece(sp, z, s, u, intra, intra+pieceLen, out[:pieceLen*ss], wp, futs, stage); err != nil {
			return err
		}
		out = out[pieceLen*ss:]
		off += pieceLen
		n -= pieceLen
	}
	return nil
}

// readPiece reads intra offsets [a, b) of data unit u in stripe s of zone
// z into dst, choosing between the normal, relocated, and degraded paths.
func (v *Volume) readPiece(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte, zoneWP int64, futs *[]subIO, stage *readStage) error {
	dev := v.lt.dataDev(z, s, u)
	if v.devForZone(dev, z) == nil {
		fut := v.degradedReadPiece(sp, z, s, u, a, b, dst, zoneWP)
		*futs = append(*futs, subIO{dev: dev, fut: fut})
		return nil
	}
	// Tag the device sub-reads with reconstruction context so a latent
	// sector error is transparently read-repaired in awaitReads.
	pre := len(stage.cmds)
	if err := v.readUnitPieceSpan(sp, z, s, u, a, b, dst, stage); err != nil {
		return err
	}
	ctx := &repairCtx{z: z, s: s, u: u, a: a, b: b, dst: dst, wp: zoneWP}
	for i := pre; i < len(stage.cmds); i++ {
		stage.reps[i] = ctx
	}
	return nil
}

// readUnitPiece reads from the unit's owning (live) device, overlaying
// any relocated fragments that shadow parts of the range. Its device
// sub-reads are drained at once; their futures join futs.
func (v *Volume) readUnitPiece(z int, s int64, u int, a, b int64, dst []byte, futs *[]subIO) error {
	stage := newReadStage()
	err := v.readUnitPieceSpan(nil, z, s, u, a, b, dst, stage)
	v.drainReadStage(stage, futs)
	return err
}

// readUnitPieceSpan stages readUnitPiece's device sub-reads on stage,
// each as an OpDevRead child of sp.
func (v *Volume) readUnitPieceSpan(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte, stage *readStage) error {
	ss := int64(v.sectorSize)
	lbaA := v.lt.stripeStart(z, s) + int64(u)*v.lt.su + a
	lbaB := lbaA + (b - a)

	gaps := []gap{{lbaA, lbaB}} // LBA ranges not covered by reloc
	v.relocMu.Lock()
	for _, f := range v.reloc[z] {
		if f.endLBA <= lbaA || f.startLBA >= lbaB {
			continue
		}
		// Copy the overlapping part from the in-memory cache.
		lo, hi := max(f.startLBA, lbaA), min(f.endLBA, lbaB)
		copy(dst[(lo-lbaA)*ss:(hi-lbaA)*ss], f.data[(lo-f.startLBA)*ss:(hi-f.startLBA)*ss])
		gaps = cutGap(gaps, lo, hi)
	}
	v.relocMu.Unlock()

	dev := v.lt.dataDev(z, s, u)
	d := v.devForZone(dev, z)
	if d == nil {
		return ErrInconsistent // caller checked liveness
	}
	for _, g := range gaps {
		intraLo := a + (g.lo - lbaA)
		pba := int64(z)*v.lt.physZoneSize + s*v.lt.su + intraLo
		out := dst[(g.lo-lbaA)*ss : (g.hi-lbaA)*ss]
		child := sp.Child(obs.OpDevRead, dev, pba, int64(len(out)))
		stage.push(dev, d, zns.Cmd{Op: zns.CmdRead, Sector: pba, Data: out, Span: child})
	}
	return nil
}

// degradedReadPiece reconstructs intra offsets [a, b) of the missing data
// unit u from the stripe buffer (partial stripes) or from parity plus the
// surviving units (complete stripes).
func (v *Volume) degradedReadPiece(sp *obs.Span, z int, s int64, u int, a, b int64, dst []byte, zoneWP int64) *vclock.Future {
	v.stats.degradedReads.Add(1)
	ss := int64(v.sectorSize)
	lz := v.zones[z]

	// Partial tail stripes live in a stripe buffer; serve from memory.
	lz.mu.Lock()
	if buf, ok := lz.active[s]; ok {
		base := int64(u) * v.lt.su * ss
		copy(dst, buf.data[base+a*ss:base+b*ss])
		lz.mu.Unlock()
		return v.clk.Completed(nil)
	}
	lz.mu.Unlock()

	// Complete stripe (or finished zone): reconstruct from media.
	stripeSec := v.lt.stripeSectors()
	g := zoneWP - s*stripeSec
	if g < 0 {
		g = 0
	}
	if g > stripeSec {
		g = stripeSec
	}
	fills := v.lt.unitFills(g)
	if fills[u] <= a {
		// The missing unit was never written here: zeroes.
		for i := range dst {
			dst[i] = 0
		}
		return v.clk.Completed(nil)
	}

	var futs []subIO
	stage := newReadStage()
	nBytes := (b - a) * ss
	pbuf := make([]byte, nBytes)
	err := v.readParityPieceSpan(sp, z, s, a, b, pbuf, stage)
	survivors := make([][]byte, 0, v.lt.d)
	for u2 := 0; u2 < v.lt.d && err == nil; u2++ {
		if u2 == u || fills[u2] <= a {
			continue
		}
		hi := fills[u2]
		if hi > b {
			hi = b
		}
		sb := make([]byte, (hi-a)*ss)
		err = v.readUnitPieceSpan(sp, z, s, u2, a, hi, sb, stage)
		survivors = append(survivors, sb)
	}
	v.drainReadStage(stage, &futs)
	if err != nil {
		return v.clk.Completed(err)
	}

	result := v.clk.NewFuture()
	v.clk.Go(func() {
		if err := v.awaitReads(futs); err != nil {
			result.Complete(err)
			return
		}
		copy(dst, pbuf)
		for _, sb := range survivors {
			parity.XORInto(dst[:len(sb)], sb)
		}
		result.Complete(nil)
	})
	return result
}

// readParityPiece reads intra offsets [a, b) of the parity unit of stripe
// s, honoring relocated parity. Its device sub-reads are drained at once;
// their futures join futs.
func (v *Volume) readParityPiece(z int, s int64, a, b int64, dst []byte, futs *[]subIO) error {
	stage := newReadStage()
	err := v.readParityPieceSpan(nil, z, s, a, b, dst, stage)
	v.drainReadStage(stage, futs)
	return err
}

// readParityPieceSpan stages readParityPiece's device sub-reads on stage,
// each as an OpDevRead child of sp. A relocated parity fragment may cover
// only part of the unit (a burn-split relocates just the burned prefix;
// the remainder was written in place), so the uncovered intra ranges are
// still read from the parity device.
func (v *Volume) readParityPieceSpan(sp *obs.Span, z int, s int64, a, b int64, dst []byte, stage *readStage) error {
	ss := int64(v.sectorSize)
	gaps := []gap{{a, b}} // intra ranges not covered by reloc
	v.relocMu.Lock()
	if e, ok := v.parityReloc[z][s]; ok {
		lo := e.startLBA - v.lt.stripeStart(z, s)
		hi := lo + int64(len(e.data))/ss
		cl, ch := max(lo, a), min(hi, b)
		if cl < ch {
			copy(dst[(cl-a)*ss:(ch-a)*ss], e.data[(cl-lo)*ss:(ch-lo)*ss])
			gaps = cutGap(gaps, cl, ch)
		}
	}
	v.relocMu.Unlock()
	if len(gaps) == 0 {
		return nil
	}

	dev := v.lt.parityDev(z, s)
	d := v.devForZone(dev, z)
	if d == nil {
		return ErrInconsistent // double failure
	}
	for _, g := range gaps {
		pba := v.lt.parityPBA(z, s) + g.lo
		out := dst[(g.lo-a)*ss : (g.hi-a)*ss]
		child := sp.Child(obs.OpDevRead, dev, pba, int64(len(out)))
		stage.push(dev, d, zns.Cmd{Op: zns.CmdRead, Sector: pba, Data: out, Span: child})
	}
	return nil
}

// gap is a sector range [lo, hi) a read still has to fetch from a
// device after relocated fragments have been copied in.
type gap struct{ lo, hi int64 }

// cutGap removes [lo, hi) from gaps.
func cutGap(gaps []gap, lo, hi int64) []gap {
	var ng []gap
	for _, g := range gaps {
		if hi <= g.lo || lo >= g.hi {
			ng = append(ng, g)
			continue
		}
		if g.lo < lo {
			ng = append(ng, gap{g.lo, lo})
		}
		if hi < g.hi {
			ng = append(ng, gap{hi, g.hi})
		}
	}
	return ng
}

// readStage accumulates device sub-reads for submission through the
// ring: instead of one device command per gap, a read stages every SQE
// and drainReadStage hands each device its whole group in one drain (one
// lock acquisition, one future slab), with all completions reaped by a
// single walker. Stages are pooled; drainReadStage recycles them.
type readStage struct {
	cmds []zns.Cmd
	devs []int         // array slot per staged cmd
	dh   []*zns.Device // device handle per staged cmd
	reps []*repairCtx  // read-repair context per staged cmd
	idx  []int         // per-group scratch: staged indices in drain order
}

var readStagePool = sync.Pool{New: func() any { return new(readStage) }}

func newReadStage() *readStage {
	s := readStagePool.Get().(*readStage)
	s.cmds = s.cmds[:0]
	s.devs = s.devs[:0]
	s.dh = s.dh[:0]
	s.reps = s.reps[:0]
	s.idx = s.idx[:0]
	return s
}

func (s *readStage) push(dev int, d *zns.Device, cmd zns.Cmd) {
	s.cmds = append(s.cmds, cmd)
	s.devs = append(s.devs, dev)
	s.dh = append(s.dh, d)
	s.reps = append(s.reps, nil)
}

// drainReadStage drains the staged SQEs through the ring — one group per
// device, preserving per-device staging order — and appends the
// resulting sub-IOs (futures plus their read-repair contexts) to futs.
// The stage is recycled; the batch recycles itself after the completion
// walker delivers the last CQE.
func (v *Volume) drainReadStage(stage *readStage, futs *[]subIO) {
	if len(stage.cmds) == 0 {
		recycleReadStage(stage)
		return
	}
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
			*futs = append(*futs, subIO{dev: dev, fut: group[k].Fut, repair: stage.reps[stage.idx[k]]})
		}
	}
	b.Submit()
	recycleReadStage(stage)
}

// recycleReadStage clears and pools a stage without draining it.
func recycleReadStage(s *readStage) {
	for i := range s.cmds {
		s.cmds[i] = zns.Cmd{}
		s.dh[i] = nil
		s.reps[i] = nil
	}
	readStagePool.Put(s)
}
