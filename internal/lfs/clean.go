package lfs

import (
	"raizn/internal/vclock"
)

// cleanLocked frees segments by relocating the live blocks of the
// fullest-invalidated segments into the active logs (F2FS "segment
// cleaning"; on a zoned volume this is the host-side GC the ZNS interface
// makes explicit). Caller holds fs.mu; the lock is released around device
// IO, with the cleaning flag excluding concurrent cleaners/allocators.
func (fs *FS) cleanLocked() error {
	for fs.cleaning {
		fs.cond.Wait()
		if len(fs.free) > 0 {
			return nil // another cleaner already freed space
		}
	}
	fs.cleaning = true
	defer func() {
		fs.cleaning = false
		fs.cond.Broadcast()
	}()
	fs.CleanRuns++

	victim := fs.pickVictimLocked()
	if victim < 0 {
		return ErrNoSpace
	}

	// Relocate the victim's live blocks into the log heads' runs, reading
	// up to a run's worth at a time. Blocks whose run has not reached the
	// device yet are copied from memory.
	bs := int64(fs.block)
	start := fs.segStart(victim)
	used := fs.segs[victim].used
	buf := make([]byte, runBlocks*bs)
	var moved []*run
	for b := int64(0); b < used; {
		var lbas []int64
		var reads []*vclock.Future
		for ; b < used && len(lbas) < runBlocks; b++ {
			lba := start + b
			if _, ok := fs.liveOwnerLocked(lba); !ok {
				continue
			}
			dst := buf[int64(len(lbas))*bs:][:bs]
			lbas = append(lbas, lba)
			if mem := fs.unsubmittedLocked(lba); mem != nil {
				copy(dst, mem)
			} else {
				reads = append(reads, fs.dev.SubmitRead(lba, dst))
			}
		}
		fs.mu.Unlock()
		err := vclock.WaitAll(reads...)
		fs.mu.Lock()
		if err != nil {
			return err
		}
		for i, lba := range lbas {
			// Re-check liveness after the blocking read: the block may
			// have been rewritten or its file deleted meanwhile.
			owner, ok := fs.liveOwnerLocked(lba)
			if !ok {
				continue
			}
			newLBA, err := fs.allocForCleanLocked(owner.file.temp)
			if err != nil {
				return err
			}
			r := fs.appendBlockLocked(owner.file, owner.idx, newLBA, buf[int64(i)*bs:][:bs])
			if n := len(moved); n == 0 || moved[n-1] != r {
				moved = append(moved, r)
			}
			fs.CleanedBlocks++
		}
	}
	// The relocated blocks must be written before the checkpoint that
	// references their new homes, so that one flush covers both.
	for _, r := range moved {
		if err := fs.waitRunLocked(r); err != nil {
			return err
		}
	}

	// Before erasing the victim, the relocated blocks and the file table
	// referencing their new homes must be durable — otherwise a crash
	// after the reset would leave the only checkpoint pointing into the
	// erased segment. Order: checkpoint (new locations), flush (data +
	// checkpoint), then reset.
	if err := fs.checkpointLocked(); err != nil {
		return err
	}
	fl := fs.clk.NewFuture()
	fs.clk.Go(func() { fl.Complete(fs.dev.Flush()) })
	fs.mu.Unlock()
	err := fl.Wait()
	fs.mu.Lock()
	if err != nil {
		return err
	}

	// The victim is now fully invalid: reset it back into the pool.
	rz := fs.resetSegment(victim)
	fs.mu.Unlock()
	err = rz.Wait()
	fs.mu.Lock()
	if err != nil {
		return err
	}
	fs.segs[victim] = segInfo{state: segFree}
	fs.free = append(fs.free, victim)
	return nil
}

// liveOwnerLocked returns the owner of lba if the owning file's block
// pointer still references it.
func (fs *FS) liveOwnerLocked(lba int64) (blockOwner, bool) {
	owner, ok := fs.rmap[lba]
	if !ok || owner.idx >= int64(len(owner.file.blocks)) || owner.file.blocks[owner.idx] != lba {
		return blockOwner{}, false
	}
	return owner, true
}

// resetSegment issues the zone reset for a data segment and returns its
// completion. Caller holds fs.mu.
func (fs *FS) resetSegment(seg int) *vclock.Future {
	fut := fs.clk.NewFuture()
	fs.clk.Go(func() {
		fut.Complete(fs.dev.ResetZone(seg))
	})
	return fut
}

// pickVictimLocked chooses the full segment with the fewest live blocks
// (greedy policy). Segments with no invalid blocks are not worth
// cleaning.
func (fs *FS) pickVictimLocked() int {
	best, bestValid := -1, fs.segSz
	for i := mdSegments; i < len(fs.segs); i++ {
		si := &fs.segs[i]
		if si.state != segFull {
			continue
		}
		if si.valid < bestValid {
			best, bestValid = i, si.valid
		}
	}
	return best
}

// allocForCleanLocked allocates a relocation block without recursing into
// the cleaner. It may consume the last free segment; the victim being
// cleaned is about to replenish the pool.
func (fs *FS) allocForCleanLocked(t Temp) (int64, error) {
	for {
		if fs.active[t] >= 0 {
			seg := fs.active[t]
			si := &fs.segs[seg]
			if si.used < fs.segSz {
				lba := fs.segStart(seg) + si.used
				si.used++
				si.valid++
				return lba, nil
			}
			si.state = segFull
			fs.active[t] = -1
		}
		if len(fs.free) == 0 {
			return -1, ErrNoSpace
		}
		seg := fs.free[len(fs.free)-1]
		fs.free = fs.free[:len(fs.free)-1]
		fs.segs[seg] = segInfo{state: segActive}
		fs.active[t] = seg
	}
}
