// Package lfs implements a zone-aware log-structured filesystem in the
// role F2FS plays in the paper's application benchmarks (§6.3): it runs
// unmodified on both the RAIZN logical ZNS volume and the mdraid block
// volume, mapping segments to zones on zoned storage (so all device-level
// placement is sequential and erases are whole-zone resets) and to plain
// regions on block storage.
//
// Like F2FS it separates multi-head logs by data temperature (hot =
// write-ahead logs, cold = sorted tables), performs segment cleaning when
// free segments run low, and persists its file table with checkpoint
// records in dedicated metadata segments. Each log head gathers its
// consecutive blocks into runs that reach the device as one write, like
// F2FS's merged bios.
package lfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"raizn/internal/vclock"
)

// Device is the storage a filesystem instance runs on. The fio target
// adapters for RAIZN satisfy the zoned form; block volumes are wrapped by
// BlockDevice.
type Device interface {
	SectorSize() int
	NumSectors() int64
	SubmitWrite(lba int64, data []byte) *vclock.Future
	SubmitRead(lba int64, buf []byte) *vclock.Future
	Flush() error

	// Segment geometry. Zoned devices map segments to zones and must
	// reset a zone before it is rewritten; block devices treat resets
	// as free-list bookkeeping.
	ZoneSectors() int64
	NumZones() int
	ResetZone(z int) error
}

// Temp is a data temperature hint, selecting the active log a file's
// blocks are appended to (F2FS's multi-head logging).
type Temp int

const (
	Hot  Temp = iota // frequently rewritten, short-lived (WAL)
	Cold             // write-once, long-lived (SSTs)
	numTemps
)

// Errors.
var (
	ErrExist    = errors.New("lfs: file exists")
	ErrNotExist = errors.New("lfs: file does not exist")
	ErrNoSpace  = errors.New("lfs: no free segments")
	ErrClosed   = errors.New("lfs: filesystem closed")
)

const (
	mdSegments = 2          // alternating checkpoint segments
	ckptMagic  = 0x4C465331 // "LFS1"
)

// FS is a mounted filesystem. Methods are safe for concurrent use by
// simulated goroutines.
type FS struct {
	dev   Device
	clk   *vclock.Clock
	block int   // bytes per block (= sector)
	segSz int64 // blocks per segment

	mu       sync.Mutex
	cond     *vclock.Cond
	files    map[string]*File
	segs     []segInfo
	active   [numTemps]int // active segment per temperature, -1 none
	free     []int
	ckptGen  uint64
	ckptSeg  int   // metadata segment currently appended to (0 or 1)
	ckptWP   int64 // next block within the checkpoint segment
	ckptBusy bool
	cleaning bool
	closed   bool

	rmap map[int64]blockOwner // lba -> owner, for segment cleaning

	heads [numTemps]*run // open run per log head, nil none
	unsub []*run         // open and sealed runs not yet submitted

	// Write-submission ordering gate. Zoned volumes require writes to
	// arrive in write-pointer order, but volume SubmitWrite may block
	// (e.g. RAIZN metadata GC), so it must not run under fs.mu. Writers
	// take a ticket while holding fs.mu (fixing the order) and submit
	// through the gate: only the ticket's turn-holder proceeds, with no
	// sync.Mutex held across the potentially blocking submit.
	ordMu    sync.Mutex
	ordCond  *vclock.Cond
	wTickets uint64
	wServed  uint64

	// Stats.
	CleanedBlocks int64
	CleanRuns     int64
}

// takeTicketLocked reserves the next write-submission slot. Caller holds
// fs.mu.
func (fs *FS) takeTicketLocked() uint64 {
	t := fs.wTickets
	fs.wTickets++
	return t
}

// submitOrdered performs the volume write for the given ticket, in ticket
// order. It must be called WITHOUT fs.mu held and returns the completion
// future after the submit (not the completion) has happened.
func (fs *FS) submitOrdered(ticket uint64, lba int64, data []byte) *vclock.Future {
	fs.ordMu.Lock()
	for fs.wServed != ticket {
		fs.ordCond.Wait()
	}
	fs.ordMu.Unlock()
	fut := fs.dev.SubmitWrite(lba, data)
	fs.ordMu.Lock()
	fs.wServed++
	fs.ordCond.Broadcast()
	fs.ordMu.Unlock()
	return fut
}

// runBlocks is the length of a full merged log write: a run is submitted
// when its end reaches a multiple of runBlocks from its segment's start.
// 64 blocks of 4 KiB are 256 KiB, one stripe at raizn's default
// geometry, so a full run reaches the volume as a whole stripe and pays
// no partial parity.
const runBlocks = 64

// run is a log head's merged write: consecutive blocks of the head's
// active segment, buffered in memory and submitted to the device as one
// SubmitWrite through the ordering gate. A run is open while it is its
// head's fs.heads entry; sealing it takes its ticket, and whoever seals
// it submits it before waiting on anything else. Until the submit has
// happened, reads of its blocks are served from data.
type run struct {
	temp   Temp
	lba    int64          // first block
	n      int64          // blocks
	data   []byte         // n blocks; nil once submitted
	ticket uint64         // gate slot, taken when sealed
	fut    *vclock.Future // completes with the device write
}

// appendBlockLocked appends blk (at most one block, zero-padded) to the
// open run of f's log head as block idx of f, at lba, which the caller
// has just allocated from that log without releasing fs.mu: run order,
// and hence ticket order, is then LBA order. The block's previous
// version is invalidated. The lock is released around submitting the
// runs the append seals. It returns the run the block went into.
func (fs *FS) appendBlockLocked(f *File, idx, lba int64, blk []byte) *run {
	var sealed []*run
	r := fs.heads[f.temp]
	if r != nil && r.lba+r.n != lba {
		sealed = append(sealed, fs.sealLocked(f.temp))
		r = nil
	}
	off := lba - fs.segStart(int(lba/fs.segSz))
	if r == nil {
		// Size the buffer for the whole run: up to the next runBlocks
		// boundary or the segment end, whichever comes first. Being
		// fresh, it also supplies the zero padding.
		n := min(runBlocks-off%runBlocks, fs.segSz-off)
		r = &run{temp: f.temp, lba: lba, data: make([]byte, 0, n*int64(fs.block)), fut: fs.clk.NewFuture()}
		fs.heads[f.temp] = r
		fs.unsub = append(fs.unsub, r)
	}
	o := len(r.data)
	r.data = r.data[:o+fs.block]
	copy(r.data[o:], blk)
	r.n++

	for int64(len(f.blocks)) <= idx {
		f.blocks = append(f.blocks, -1)
	}
	fs.invalidateLocked(f.blocks[idx])
	f.blocks[idx] = lba
	fs.rmap[lba] = blockOwner{file: f, idx: idx}
	if n := len(f.pending); n > 0 && f.pending[n-1].r == r {
		f.pending[n-1].n++
	} else {
		f.pending = append(f.pending, pendingRun{r: r, n: 1})
	}
	f.inflight++

	if off++; off%runBlocks == 0 || off == fs.segSz {
		sealed = append(sealed, fs.sealLocked(f.temp))
	}
	fs.submitLocked(sealed...)
	return r
}

// sealLocked closes t's open run and takes its gate ticket. The caller
// must submit it. Caller holds fs.mu.
func (fs *FS) sealLocked(t Temp) *run {
	r := fs.heads[t]
	fs.heads[t] = nil
	r.ticket = fs.takeTicketLocked()
	return r
}

// sealAllLocked seals every open run, in log-head order.
func (fs *FS) sealAllLocked() []*run {
	var out []*run
	for t := range fs.heads {
		if fs.heads[t] != nil {
			out = append(out, fs.sealLocked(Temp(t)))
		}
	}
	return out
}

// submitLocked submits sealed runs (in ticket order) through the gate;
// each run's future completes with its device write. Caller holds fs.mu;
// it is released around the submits.
func (fs *FS) submitLocked(runs ...*run) {
	if len(runs) == 0 {
		return
	}
	fs.mu.Unlock()
	for _, r := range runs {
		fs.submitOrdered(r.ticket, r.lba, r.data).Subscribe(r.fut.Complete)
	}
	fs.mu.Lock()
	for _, r := range runs {
		r.data = nil
		for i, u := range fs.unsub {
			if u == r {
				fs.unsub = append(fs.unsub[:i], fs.unsub[i+1:]...)
				break
			}
		}
	}
}

// waitRunLocked waits for r's device write, first submitting r if it is
// still its head's open run. Caller holds fs.mu; it is released around
// the wait.
func (fs *FS) waitRunLocked(r *run) error {
	if fs.heads[r.temp] == r {
		fs.submitLocked(fs.sealLocked(r.temp))
	}
	fs.mu.Unlock()
	err := r.fut.Wait()
	fs.mu.Lock()
	return err
}

// unsubmittedLocked returns the in-memory copy of block lba if its run
// has not been submitted to the device yet, else nil. Caller holds fs.mu.
func (fs *FS) unsubmittedLocked(lba int64) []byte {
	bs := int64(fs.block)
	for _, r := range fs.unsub {
		if lba >= r.lba && lba < r.lba+r.n {
			o := (lba - r.lba) * bs
			return r.data[o : o+bs]
		}
	}
	return nil
}

type blockOwner struct {
	file *File
	idx  int64 // block index within the file
}

type segInfo struct {
	state segState
	used  int64 // blocks written (log head within the segment)
	valid int64 // live blocks
}

type segState uint8

const (
	segFree segState = iota
	segActive
	segFull
	segMeta
)

// File is an append-only file with block-granular relocation (rewriting
// the unaligned tail relocates it, as any log-structured FS must).
//
// Appends are pipelined like page-cache writeback: full blocks go into
// their log head's run without waiting, and Sync is the barrier that
// submits and drains outstanding runs (collecting their errors) before
// flushing.
type File struct {
	fs     *FS
	name   string
	temp   Temp
	size   int64   // bytes
	blocks []int64 // lba of each full or padded block, -1 = hole
	tail   []byte  // bytes past the last durable block boundary
	tailAt int64   // block index the tail belongs to
	wErr   error   // first async write error, surfaced on the next op

	pending  []pendingRun // runs holding blocks of this file, oldest first
	inflight int64        // blocks in pending

	deleted bool // removed by Delete or replaced by Rename

	busy bool         // an Append or Sync is in progress
	cond *vclock.Cond // waiters for busy, created on first contention
}

// pendingRun is a run holding n blocks of a file.
type pendingRun struct {
	r *run
	n int64
}

// maxPending bounds the blocks a file has in incomplete runs before
// backpressure.
const maxPending = 128

// acquireLocked serializes Append and Sync on the file: both release
// fs.mu inside (allocation may clean, submits wait in the gate), and the
// tail must not change under them meanwhile. Caller holds fs.mu.
func (f *File) acquireLocked() {
	for f.busy {
		if f.cond == nil {
			f.cond = f.fs.clk.NewCond(&f.fs.mu)
		}
		f.cond.Wait()
	}
	f.busy = true
}

// releaseLocked ends an acquireLocked section.
func (f *File) releaseLocked() {
	f.busy = false
	if f.cond != nil {
		f.cond.Signal()
	}
}

// serialized runs op holding the file (acquireLocked). Caller holds
// fs.mu.
func (f *File) serialized(op func() error) error {
	f.acquireLocked()
	defer f.releaseLocked()
	return op()
}

// noteErr records the first asynchronous write error of the file.
func (f *File) noteErr(err error) {
	if err != nil && f.wErr == nil {
		f.wErr = err
	}
}

// waitOldestLocked removes the file's oldest pending run and waits for
// it. Caller holds fs.mu; the lock is released around the wait.
func (f *File) waitOldestLocked() {
	p := f.pending[0]
	f.pending = f.pending[1:]
	f.inflight -= p.n
	f.noteErr(f.fs.waitRunLocked(p.r))
}

// drainPendingLocked submits and waits for all outstanding runs holding
// the file's blocks. Caller holds fs.mu; the lock is released around the
// waits.
func (f *File) drainPendingLocked() error {
	for len(f.pending) > 0 {
		f.waitOldestLocked()
	}
	err := f.wErr
	f.wErr = nil
	return err
}

// Format initializes a filesystem on the device and returns it mounted.
func Format(clk *vclock.Clock, dev Device) (*FS, error) {
	if dev.NumZones() < mdSegments+2 {
		return nil, errors.New("lfs: device too small")
	}
	fs := newFS(clk, dev)
	// Reset everything (the device may hold a previous filesystem).
	for z := 0; z < dev.NumZones(); z++ {
		if err := dev.ResetZone(z); err != nil {
			return nil, err
		}
	}
	for i := range fs.segs {
		if i < mdSegments {
			fs.segs[i] = segInfo{state: segMeta}
		} else {
			fs.segs[i] = segInfo{state: segFree}
			fs.free = append(fs.free, i)
		}
	}
	fs.mu.Lock()
	err := fs.checkpointLocked()
	fs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return fs, nil
}

func newFS(clk *vclock.Clock, dev Device) *FS {
	fs := &FS{
		dev:   dev,
		clk:   clk,
		block: dev.SectorSize(),
		segSz: dev.ZoneSectors(),
		files: make(map[string]*File),
		segs:  make([]segInfo, dev.NumZones()),
		rmap:  make(map[int64]blockOwner),
	}
	fs.cond = clk.NewCond(&fs.mu)
	fs.ordCond = clk.NewCond(&fs.ordMu)
	for t := range fs.active {
		fs.active[t] = -1
	}
	return fs
}

func (fs *FS) segStart(seg int) int64 { return int64(seg) * fs.segSz }

// Create creates an empty file with the given temperature hint.
func (fs *FS) Create(name string, temp Temp) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, ErrClosed
	}
	if _, ok := fs.files[name]; ok {
		return nil, ErrExist
	}
	f := &File{fs: fs, name: name, temp: temp, tailAt: 0}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return f, nil
	}
	return nil, ErrNotExist
}

// Exists reports whether the file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// List returns all file names, sorted.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Delete removes a file, invalidating its blocks.
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return ErrNotExist
	}
	for _, lba := range f.blocks {
		fs.invalidateLocked(lba)
	}
	f.blocks = nil
	f.deleted = true
	delete(fs.files, name)
	return nil
}

// Rename renames a file, replacing any existing target (RocksDB-style
// atomic manifest swap).
func (fs *FS) Rename(old, new string) error {
	fs.mu.Lock()
	f, ok := fs.files[old]
	if !ok {
		fs.mu.Unlock()
		return ErrNotExist
	}
	victim := fs.files[new]
	if victim != nil {
		for _, lba := range victim.blocks {
			fs.invalidateLocked(lba)
		}
		victim.blocks = nil
		victim.deleted = true
	}
	delete(fs.files, old)
	f.name = new
	fs.files[new] = f
	fs.mu.Unlock()
	return nil
}

func (fs *FS) invalidateLocked(lba int64) {
	if lba < 0 {
		return
	}
	seg := int(lba / fs.segSz)
	fs.segs[seg].valid--
	delete(fs.rmap, lba)
}

// cleanReserve is the number of free segments kept back for the
// cleaner's relocations: a victim's live blocks need somewhere to go, so
// cleaning must start before the pool is empty (the classic LFS reserved
// segments).
const cleanReserve = 2

// allocBlockLocked returns the next log block for temperature t,
// rotating to a fresh segment (and cleaning if needed) when the active
// one fills.
func (fs *FS) allocBlockLocked(t Temp) (int64, error) {
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
		if len(fs.free) <= cleanReserve {
			err := fs.cleanLocked()
			if err == nil {
				continue
			}
			// Nothing cleanable: dip into the reserve rather than fail
			// a filesystem that still has space.
			if err != ErrNoSpace || len(fs.free) == 0 {
				return -1, err
			}
		}
		seg := fs.free[len(fs.free)-1]
		fs.free = fs.free[:len(fs.free)-1]
		fs.segs[seg] = segInfo{state: segActive}
		fs.active[t] = seg
	}
}

// Append appends p to the file. Full blocks go into the log head's run
// immediately; the unaligned tail is buffered until Sync or until it
// fills.
func (f *File) Append(p []byte) error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	f.acquireLocked()
	defer f.releaseLocked()
	bs := int64(fs.block)
	for len(p) > 0 {
		n := bs - int64(len(f.tail))
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		f.tail = append(f.tail, p[:n]...)
		p = p[n:]
		f.size += n
		if int64(len(f.tail)) == bs {
			if err := f.writeTailLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTailLocked writes the tail buffer as one (zero-padded if short)
// block at a fresh log location. Caller holds fs.mu and the file
// (acquireLocked).
func (f *File) writeTailLocked() error {
	fs := f.fs
	if len(f.tail) == 0 {
		return nil
	}
	lba, err := fs.allocBlockLocked(f.temp)
	if err != nil {
		return err
	}
	fs.appendBlockLocked(f, f.tailAt, lba, f.tail)
	for f.inflight > maxPending {
		f.waitOldestLocked()
	}
	if f.wErr != nil {
		err := f.wErr
		f.wErr = nil
		return err
	}
	if len(f.tail) == fs.block {
		f.tail = f.tail[:0]
		f.tailAt++
	}
	return nil
}

// Size returns the file size in bytes.
func (f *File) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.size
}

// ReadAt reads len(p) bytes at byte offset off. Reads past EOF return
// io-style short data as an error.
func (f *File) ReadAt(p []byte, off int64) error {
	fs := f.fs
	fs.mu.Lock()
	if f.deleted {
		fs.mu.Unlock()
		return ErrNotExist
	}
	if off < 0 || off+int64(len(p)) > f.size {
		fs.mu.Unlock()
		return fmt.Errorf("lfs: read [%d,%d) beyond EOF %d of %s", off, off+int64(len(p)), f.size, f.name)
	}
	bs := int64(fs.block)
	type pending struct {
		fut *vclock.Future
		tmp []byte // whole-block buffer for partial reads (nil = direct)
		dst []byte
		bo  int64
	}
	var reads []pending
	out := p
	pos := off
	for len(out) > 0 {
		bi := pos / bs
		bo := pos % bs
		n := bs - bo
		if n > int64(len(out)) {
			n = int64(len(out))
		}
		inTail := bi == f.tailAt && bo < int64(len(f.tail))
		var mem []byte
		if !inTail {
			mem = fs.unsubmittedLocked(f.blocks[bi])
		}
		switch {
		case inTail:
			// Served from the in-memory tail.
			copy(out[:n], f.tail[bo:bo+n])
		case mem != nil:
			// Its run has not reached the device yet.
			copy(out[:n], mem[bo:bo+n])
		case bo == 0 && n == bs:
			// Aligned full block: read straight into the caller's buf.
			reads = append(reads, pending{fut: fs.dev.SubmitRead(f.blocks[bi], out[:n])})
		default:
			// Partial block: read the whole block, copy the slice out.
			tmp := make([]byte, bs)
			reads = append(reads, pending{
				fut: fs.dev.SubmitRead(f.blocks[bi], tmp),
				tmp: tmp, dst: out[:n], bo: bo,
			})
		}
		pos += n
		out = out[n:]
	}
	fs.mu.Unlock()
	var firstErr error
	for _, r := range reads {
		if err := r.fut.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
		if r.tmp != nil {
			copy(r.dst, r.tmp[r.bo:r.bo+int64(len(r.dst))])
		}
	}
	return firstErr
}

// Sync makes the file's current content durable: the buffered tail is
// written (padded), the runs holding the file's blocks are submitted and
// drained, the file table checkpointed so the content survives remount,
// and the device cache flushed.
func (f *File) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return ErrClosed
	}
	err := f.serialized(f.writeTailLocked)
	if err == nil {
		err = f.serialized(f.drainPendingLocked)
	}
	if err == nil {
		err = fs.checkpointLocked()
	}
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	return fs.dev.Flush()
}

// Sync checkpoints the filesystem metadata and flushes the device.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return ErrClosed
	}
	err := fs.syncFilesLocked()
	if err == nil {
		err = fs.checkpointLocked()
	}
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	return fs.dev.Flush()
}

// syncFilesLocked writes every file's tail, then drains every file, so
// that the tails share their log heads' runs.
func (fs *FS) syncFilesLocked() error {
	// Snapshot the file set: the lock is released around device IO, so
	// the map must not be ranged directly.
	files := make([]*File, 0, len(fs.files))
	for _, f := range fs.files {
		files = append(files, f)
	}
	for _, f := range files {
		if err := f.serialized(f.writeTailLocked); err != nil {
			return err
		}
	}
	for _, f := range files {
		if err := f.serialized(f.drainPendingLocked); err != nil {
			return err
		}
	}
	return nil
}

// Close checkpoints and marks the filesystem unusable.
func (fs *FS) Close() error {
	if err := fs.Sync(); err != nil {
		return err
	}
	fs.mu.Lock()
	fs.closed = true
	fs.mu.Unlock()
	return nil
}

// FreeSegments returns the current number of free data segments.
func (fs *FS) FreeSegments() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.free)
}
