package lfs

import (
	"encoding/binary"
	"errors"

	"raizn/internal/vclock"
)

// Checkpoints persist the file table and segment states into the two
// reserved metadata segments, alternating between them like F2FS's
// checkpoint packs: records are appended to the current pack; when it
// fills, the other pack is reset and becomes current. On mount the record
// with the highest generation wins, so a torn checkpoint write simply
// falls back to the previous one.

// encodeCheckpointLocked serializes the filesystem state. Caller holds
// fs.mu.
func (fs *FS) encodeCheckpointLocked() []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }

	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	u32(uint32(len(names)))
	for _, n := range names {
		f := fs.files[n]
		u32(uint32(len(n)))
		b = append(b, n...)
		b = append(b, byte(f.temp))
		u64(uint64(f.size))
		u64(uint64(f.tailAt))
		u32(uint32(len(f.blocks)))
		for _, lba := range f.blocks {
			u64(uint64(lba))
		}
		u32(uint32(len(f.tail)))
		b = append(b, f.tail...)
	}
	u32(uint32(len(fs.segs)))
	for i := range fs.segs {
		b = append(b, byte(fs.segs[i].state))
		u64(uint64(fs.segs[i].used))
	}
	return b
}

func (fs *FS) decodeCheckpoint(b []byte) (err error) {
	// A corrupt blob cannot occur for a checkpoint whose header length
	// was satisfied, but decode defensively: any slice panic rejects the
	// blob without mutating the filesystem (state is committed at the
	// end).
	defer func() {
		if recover() != nil {
			err = errors.New("lfs: corrupt checkpoint")
		}
	}()
	var off int
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}

	nFiles := int(u32())
	files := make(map[string]*File, nFiles)
	for i := 0; i < nFiles; i++ {
		nl := int(u32())
		name := string(b[off : off+nl])
		off += nl
		temp := Temp(b[off])
		off++
		size := int64(u64())
		tailAt := int64(u64())
		nb := int(u32())
		blocks := make([]int64, nb)
		for j := 0; j < nb; j++ {
			blocks[j] = int64(u64())
		}
		tl := int(u32())
		tail := append([]byte(nil), b[off:off+tl]...)
		off += tl
		files[name] = &File{fs: fs, name: name, temp: temp, size: size, tailAt: tailAt, blocks: blocks, tail: tail}
	}
	nSegs := int(u32())
	if nSegs != len(fs.segs) {
		return errors.New("lfs: checkpoint segment count mismatch")
	}
	segs := make([]segInfo, nSegs)
	for i := 0; i < nSegs; i++ {
		segs[i].state = segState(b[off])
		off++
		segs[i].used = int64(u64())
	}
	// Commit.
	copy(fs.segs, segs)
	fs.files = files

	// Rebuild the reverse map and per-segment valid counts.
	fs.rmap = make(map[int64]blockOwner)
	for _, f := range fs.files {
		for idx, lba := range f.blocks {
			if lba < 0 {
				continue
			}
			fs.rmap[lba] = blockOwner{file: f, idx: int64(idx)}
			fs.segs[lba/fs.segSz].valid++
		}
	}
	// Active segments are abandoned (their post-checkpoint tail is
	// unreachable); the cleaner reclaims the garbage.
	fs.free = fs.free[:0]
	for t := range fs.active {
		fs.active[t] = -1
	}
	for i := range fs.segs {
		switch fs.segs[i].state {
		case segActive:
			fs.segs[i].state = segFull
			fs.segs[i].used = fs.segSz // unreachable tail counts as garbage
		case segFree:
			if i >= mdSegments {
				fs.free = append(fs.free, i)
			}
		}
	}
	return nil
}

const ckptHeader = 24 // magic(4) pad(4) gen(8) len(8)

// checkpointLocked appends a checkpoint record to the current metadata
// pack. Caller holds fs.mu; the lock is dropped around device IO with the
// ckptBusy flag serializing checkpointers. The open runs are sealed in
// the same lock hold that encodes the record, so every block the record
// references is submitted before it.
func (fs *FS) checkpointLocked() error {
	for fs.ckptBusy {
		fs.cond.Wait()
	}
	fs.ckptBusy = true
	defer func() {
		fs.ckptBusy = false
		fs.cond.Broadcast()
	}()

	fs.ckptGen++
	sealed := fs.sealAllLocked()
	payload := fs.encodeCheckpointLocked()
	fs.submitLocked(sealed...)
	bs := int64(fs.block)
	total := (ckptHeader + int64(len(payload)) + bs - 1) / bs * bs
	blob := make([]byte, total)
	binary.LittleEndian.PutUint32(blob[0:4], ckptMagic)
	binary.LittleEndian.PutUint64(blob[8:16], fs.ckptGen)
	binary.LittleEndian.PutUint64(blob[16:24], uint64(len(payload)))
	copy(blob[ckptHeader:], payload)
	nBlocks := total / bs

	if fs.ckptWP+nBlocks > fs.segSz {
		// Roll over to the other pack.
		other := 1 - fs.ckptSeg
		rz := fs.resetSegment(other)
		fs.mu.Unlock()
		err := rz.Wait()
		fs.mu.Lock()
		if err != nil {
			return err
		}
		fs.ckptSeg = other
		fs.ckptWP = 0
		if nBlocks > fs.segSz {
			return errors.New("lfs: checkpoint larger than a segment")
		}
	}
	lba := fs.segStart(fs.ckptSeg) + fs.ckptWP
	fs.ckptWP += nBlocks
	ticket := fs.takeTicketLocked()
	fs.mu.Unlock()
	err := fs.submitOrdered(ticket, lba, blob).Wait()
	fs.mu.Lock()
	return err
}

// Mount loads a filesystem previously created by Format from the device,
// restoring the newest complete checkpoint.
func Mount(clk *vclock.Clock, dev Device) (*FS, error) {
	fs := newFS(clk, dev)
	bs := int64(fs.block)

	var best []byte
	var bestGen uint64
	bestSeg, bestEnd := 0, int64(0)
	for seg := 0; seg < mdSegments; seg++ {
		wp := int64(0)
		hdr := make([]byte, bs)
		for wp < fs.segSz {
			lba := fs.segStart(seg) + wp
			if err := dev.SubmitRead(lba, hdr).Wait(); err != nil {
				break // beyond the zone write pointer
			}
			if binary.LittleEndian.Uint32(hdr[0:4]) != ckptMagic {
				break
			}
			gen := binary.LittleEndian.Uint64(hdr[8:16])
			plen := int64(binary.LittleEndian.Uint64(hdr[16:24]))
			total := (ckptHeader + plen + bs - 1) / bs * bs
			if wp+total/bs > fs.segSz {
				break // torn record
			}
			blob := make([]byte, total)
			copy(blob, hdr)
			if total > bs {
				if err := dev.SubmitRead(lba+1, blob[bs:]).Wait(); err != nil {
					break // payload beyond write pointer: torn
				}
			}
			if gen > bestGen {
				bestGen = gen
				best = blob[ckptHeader : ckptHeader+plen]
				bestSeg = seg
				bestEnd = wp + total/bs
			}
			wp += total / bs
		}
	}
	if best == nil {
		return nil, errors.New("lfs: no valid checkpoint found (not formatted?)")
	}
	if err := fs.decodeCheckpoint(best); err != nil {
		return nil, err
	}
	fs.ckptGen = bestGen
	fs.ckptSeg = bestSeg
	// A torn record may sit beyond the last good one, so the zone write
	// pointer can be ahead of bestEnd; force the next checkpoint to roll
	// over to a freshly reset pack rather than append.
	_ = bestEnd
	fs.ckptWP = fs.segSz
	fs.segs[0].state = segMeta
	fs.segs[1].state = segMeta
	return fs, nil
}
