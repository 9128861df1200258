package lfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raizn/internal/fio"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// devWrite is one SubmitWrite seen by recDevice.
type devWrite struct {
	lba, n int64
	ckpt   bool // into a checkpoint (metadata) segment
}

// recDevice wraps a Device, recording every write and read. While hold
// is set, data writes park inside SubmitWrite until it completes, which
// keeps their run in the ordering gate. onRead runs inside SubmitRead,
// with the caller's locks held.
type recDevice struct {
	Device
	mu     sync.Mutex
	writes []devWrite
	reads  []int64 // first lba of each read
	hold   *vclock.Future
	onRead func(lba int64)
}

func (d *recDevice) SubmitWrite(lba int64, data []byte) *vclock.Future {
	w := devWrite{lba: lba, n: int64(len(data) / d.SectorSize()), ckpt: lba < mdSegments*d.ZoneSectors()}
	d.mu.Lock()
	d.writes = append(d.writes, w)
	hold := d.hold
	d.mu.Unlock()
	if hold != nil && !w.ckpt {
		hold.Wait()
	}
	return d.Device.SubmitWrite(lba, data)
}

func (d *recDevice) SubmitRead(lba int64, buf []byte) *vclock.Future {
	d.mu.Lock()
	d.reads = append(d.reads, lba)
	hook := d.onRead
	d.mu.Unlock()
	if hook != nil {
		hook(lba)
	}
	return d.Device.SubmitRead(lba, buf)
}

// dataWrites returns the recorded writes outside the checkpoint segments.
func (d *recDevice) dataWrites() []devWrite {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []devWrite
	for _, w := range d.writes {
		if !w.ckpt {
			out = append(out, w)
		}
	}
	return out
}

func (d *recDevice) reset() {
	d.mu.Lock()
	d.writes, d.reads = nil, nil
	d.mu.Unlock()
}

// blockData returns n deterministic bytes for a file.
func blockData(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestMergedWritesSequentialAppend checks that a sequential append of N
// blocks reaches the device in at most ⌈N/64⌉+1 writes.
func TestMergedWritesSequentialAppend(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		rec := &recDevice{Device: dev}
		fs, err := Format(c, rec)
		if err != nil {
			t.Fatal(err)
		}
		rec.reset()
		const nBlocks = 300
		want := blockData(1, nBlocks*fs.block)
		f, _ := fs.Create("seq", Cold)
		for p := want; len(p) > 0; {
			n := min(1000, len(p))
			if err := f.Append(p[:n]); err != nil {
				t.Fatal(err)
			}
			p = p[n:]
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		ws := rec.dataWrites()
		var blocks int64
		for _, w := range ws {
			blocks += w.n
		}
		if blocks != nBlocks {
			t.Fatalf("device got %d data blocks, want %d", blocks, nBlocks)
		}
		if limit := (nBlocks+runBlocks-1)/runBlocks + 1; len(ws) > limit {
			t.Fatalf("%d data writes for %d sequential blocks, want at most %d", len(ws), nBlocks, limit)
		}
		got := make([]byte, len(want))
		if err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("content mismatch")
		}
	})
}

// TestMergedWritesShape churns Hot and Cold files through cleaning with
// periodic syncs from one goroutine, then checks every data write: none
// crosses a segment, and each that does not end on a runBlocks boundary
// or at its segment's end was cut by a checkpoint (Sync or cleaning): a
// checkpoint write follows it before the next data write to its segment.
func TestMergedWritesShape(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		rec := &recDevice{Device: dev}
		fs, err := Format(c, rec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		keep, _ := fs.Create("keep", Cold)
		var keepData []byte
		capBlocks := int64(dev.NumZones()-mdSegments) * fs.segSz
		for i := 0; int64(i) < capBlocks/16; i++ {
			name := fmt.Sprintf("churn%d", i%6)
			f, err := Create2(fs, name, Temp(i%2))
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Append(blockData(int64(i), (4+rng.Intn(60))*fs.block+rng.Intn(fs.block))); err != nil {
				t.Fatal(err)
			}
			chunk := blockData(int64(-i), 1+rng.Intn(fs.block))
			if err := keep.Append(chunk); err != nil {
				t.Fatal(err)
			}
			keepData = append(keepData, chunk...)
			if i%17 == 0 {
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if fs.CleanRuns == 0 {
			t.Fatal("cleaner never ran")
		}
		rec.mu.Lock()
		ws := append([]devWrite(nil), rec.writes...)
		rec.mu.Unlock()
		full := 0
		for i, w := range ws {
			if w.ckpt {
				continue
			}
			seg := w.lba / fs.segSz
			if (w.lba+w.n-1)/fs.segSz != seg {
				t.Fatalf("write %d [%d,+%d) crosses segment %d", i, w.lba, w.n, seg)
			}
			end := w.lba + w.n - seg*fs.segSz
			if end%runBlocks == 0 || end == fs.segSz {
				if w.n == runBlocks {
					full++
				}
				continue
			}
			cut := false
			for _, nx := range ws[i+1:] {
				if nx.ckpt {
					cut = true
					break
				}
				if nx.lba/fs.segSz == seg {
					break
				}
			}
			if !cut {
				t.Fatalf("write %d [%d,+%d) ends off a run boundary with no checkpoint before the next write to segment %d", i, w.lba, w.n, seg)
			}
		}
		if full == 0 {
			t.Fatal("no full-length run reached the device")
		}
		got := make([]byte, len(keepData))
		if err := keep.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keepData) {
			t.Fatal("keep corrupted")
		}
	})
}

// TestReadsServedFromUnsubmittedRuns checks read-your-writes for blocks
// whose run is still open, and for blocks whose run waits in the
// ordering gate, through ReadAt and through the cleaner, which must copy
// such blocks from memory rather than read them from the device.
func TestReadsServedFromUnsubmittedRuns(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		rec := &recDevice{Device: dev}
		fs, err := Format(c, rec)
		if err != nil {
			t.Fatal(err)
		}
		bs := fs.block
		keep, _ := fs.Create("keep", Cold)
		junk, _ := fs.Create("junk", Cold)
		var keepData []byte
		appendKeep := func(i int) error {
			b := blockData(int64(i), bs)
			keepData = append(keepData, b...)
			return keep.Append(b)
		}

		// Open run: three blocks, nothing on the device yet.
		rec.reset()
		for i := 0; i < 3; i++ {
			if err := appendKeep(i); err != nil {
				t.Fatal(err)
			}
		}
		if ws := rec.dataWrites(); len(ws) != 0 {
			t.Fatalf("open run already written: %v", ws)
		}
		got := make([]byte, len(keepData))
		if err := keep.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keepData) {
			t.Fatal("open run read mismatch")
		}

		// Fill the Cold segment with junk up to its last run, so that
		// keep's live blocks in it fit one cleaner batch (the batch's
		// relocations then stay in an open run until the reads are done).
		i := 3
		for ; int64(i) < fs.segSz-runBlocks; i++ {
			if err := junk.Append(blockData(int64(i), bs)); err != nil {
				t.Fatal(err)
			}
		}
		// Gated run: the segment's last run, alternating keep and junk
		// blocks, is sealed at the segment end, and its submit parks in
		// the device until hold completes.
		hold := c.NewFuture()
		rec.mu.Lock()
		rec.hold = hold
		rec.mu.Unlock()
		wg := c.NewWaitGroup()
		wg.Add(1)
		var gatedErr error
		lastKeep := make([]byte, 0, runBlocks*bs)
		c.Go(func() {
			defer wg.Done()
			for j := i; int64(j) < fs.segSz; j++ {
				b := blockData(int64(j), bs)
				var err error
				if j%2 == 0 {
					keepData = append(keepData, b...)
					lastKeep = append(lastKeep, b...)
					err = keep.Append(b)
				} else {
					err = junk.Append(b)
				}
				if err != nil {
					gatedErr = err
					return
				}
			}
		})
		c.Sleep(time.Millisecond)
		fs.mu.Lock()
		if len(fs.unsub) != 1 || fs.unsub[0].n != runBlocks || fs.heads[Cold] != nil {
			fs.mu.Unlock()
			t.Fatalf("want one sealed run of %d blocks waiting in the gate", runBlocks)
		}
		gated := *fs.unsub[0]
		fs.mu.Unlock()
		got = make([]byte, len(keepData))
		if err := keep.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keepData) {
			t.Fatal("gated run read mismatch")
		}

		// Make the segment a cleaning victim: delete junk, then move the
		// Cold head to a fresh segment. The cleaner relocates keep's live
		// blocks, including those in the gated run.
		if err := fs.Delete("junk"); err != nil {
			t.Fatal(err)
		}
		other, _ := fs.Create("other", Cold)
		if err := other.Append(blockData(-1, bs)); err != nil {
			t.Fatal(err)
		}
		rec.reset()
		wg.Add(1)
		var cleanErr error
		c.Go(func() {
			defer wg.Done()
			fs.mu.Lock()
			cleanErr = fs.cleanLocked()
			fs.mu.Unlock()
		})
		c.Sleep(time.Millisecond)
		rec.mu.Lock()
		if len(rec.reads) == 0 {
			t.Error("cleaner read nothing from the device")
		}
		for _, lba := range rec.reads {
			if lba >= gated.lba && lba < gated.lba+gated.n {
				t.Errorf("cleaner read block %d of the gated run from the device", lba)
			}
		}
		rec.hold = nil
		rec.mu.Unlock()
		hold.Complete(nil)
		wg.Wait()
		if gatedErr != nil || cleanErr != nil {
			t.Fatalf("gated append: %v, clean: %v", gatedErr, cleanErr)
		}
		if fs.CleanedBlocks < int64(len(lastKeep)/bs) {
			t.Fatalf("cleaner relocated %d blocks, want at least the %d in the gated run", fs.CleanedBlocks, len(lastKeep)/bs)
		}
		got = make([]byte, len(keepData))
		if err := keep.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keepData) {
			t.Fatal("keep corrupted by cleaning")
		}
		if err := keep.Sync(); err != nil {
			t.Fatal(err)
		}
		fs2, err := Mount(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := fs2.Open("keep")
		if err != nil {
			t.Fatal(err)
		}
		got = make([]byte, len(keepData))
		if err := k2.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keepData) {
			t.Fatal("keep corrupted across remount")
		}
	})
}

// TestConcurrentAppendsOneFile has many goroutines append records to one
// file, with syncs mixed in, while churn forces segment cleaning. Every
// record must come back exactly once, in each writer's order, and no
// operation may fail.
func TestConcurrentAppendsOneFile(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, err := Format(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		wal, _ := fs.Create("wal", Hot)
		const writers = 8
		var done atomic.Bool
		var failed atomic.Value
		fail := func(err error) { failed.CompareAndSwap(nil, err) }
		counts := make([]int, writers)
		wg := c.NewWaitGroup()
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for seq := 0; !done.Load() || seq < 50; seq++ {
					if err := wal.Append(walRecord(w, seq, 1+rng.Intn(700))); err != nil {
						fail(err)
						return
					}
					counts[w] = seq + 1
					if rng.Intn(10) == 0 {
						if err := wal.Sync(); err != nil {
							fail(err)
							return
						}
					}
					c.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
				}
			})
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; fs.CleanRuns < 4 && i < 10000; i++ {
			f, err := Create2(fs, fmt.Sprintf("churn%d", i%4), Cold)
			if err == nil {
				err = f.Append(blockData(int64(i), 32*fs.block-rng.Intn(fs.block)))
			}
			if err == nil && i%4 == 0 {
				err = f.Sync()
			}
			if err != nil {
				fail(err)
				break
			}
		}
		cleaned := fs.CleanRuns
		done.Store(true)
		wg.Wait()
		if err, _ := failed.Load().(error); err != nil {
			t.Fatal(err)
		}
		if cleaned < 4 {
			t.Fatalf("cleaner ran %d times while the writers appended, want 4", cleaned)
		}
		check := func(f *File) {
			t.Helper()
			buf := make([]byte, f.Size())
			if err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			next := make([]int, writers)
			for off := 0; off < len(buf); {
				r := buf[off:]
				if len(r) < 7 {
					t.Fatalf("truncated record at offset %d", off)
				}
				w, seq, n := int(r[0]), int(binary.LittleEndian.Uint32(r[1:])), int(binary.LittleEndian.Uint16(r[5:]))
				if w >= writers || seq != next[w] || 7+n > len(r) || !bytes.Equal(r[:7+n], walRecord(w, seq, n)) {
					t.Fatalf("bad record at offset %d: writer %d seq %d", off, w, seq)
				}
				next[w]++
				off += 7 + n
			}
			for w := range next {
				if next[w] != counts[w] {
					t.Fatalf("writer %d: %d records in the file, %d appended", w, next[w], counts[w])
				}
			}
		}
		check(wal)
		if err := wal.Sync(); err != nil {
			t.Fatal(err)
		}
		fs2, err := Mount(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := fs2.Open("wal")
		if err != nil {
			t.Fatal(err)
		}
		check(w2)
	})
}

// walRecord encodes writer w's record seq with an n-byte payload.
func walRecord(w, seq, n int) []byte {
	b := make([]byte, 7+n)
	b[0] = byte(w)
	binary.LittleEndian.PutUint32(b[1:], uint32(seq))
	binary.LittleEndian.PutUint16(b[5:], uint16(n))
	for i := range b[7:] {
		b[7+i] = byte(w*31 + seq + i)
	}
	return b
}

// TestDeleteDuringCleaning deletes a file while the cleaner waits on
// reads of its blocks: the cleaner must skip them, not index the
// deleted file's block list.
func TestDeleteDuringCleaning(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		rec := &recDevice{Device: dev}
		fs, err := Format(c, rec)
		if err != nil {
			t.Fatal(err)
		}
		keeper, _ := fs.Create("keeper", Cold)
		var deleted atomic.Bool
		var delErr error
		rec.onRead = func(lba int64) {
			// Runs under fs.mu, inside the cleaner's victim read.
			if fs.cleaning && fs.rmap[lba].file == keeper && !deleted.Swap(true) {
				c.Go(func() { delErr = fs.Delete("keeper") })
			}
		}
		rec.Device = slowReads{Device: dev, c: c}
		capBlocks := int64(dev.NumZones()-mdSegments) * fs.segSz
		kept := map[string][]byte{}
		for i := 0; int64(i) < capBlocks/3 && fs.CleanRuns < 4; i++ {
			if !deleted.Load() {
				if err := keeper.Append(blockData(int64(i), fs.block)); err != nil {
					t.Fatal(err)
				}
			}
			name := fmt.Sprintf("churn%d", i%3)
			f, err := Create2(fs, name, Cold)
			if err != nil {
				t.Fatal(err)
			}
			data := blockData(int64(-i), 5*fs.block)
			if err := f.Append(data); err != nil {
				t.Fatal(err)
			}
			kept[name] = data
		}
		if !deleted.Load() {
			t.Fatal("cleaner never read a keeper block; test ineffective")
		}
		if delErr != nil {
			t.Fatal(delErr)
		}
		if fs.Exists("keeper") {
			t.Fatal("keeper survived its delete")
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		fs2, err := Mount(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range kept {
			f, err := fs2.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s corrupted", name)
			}
		}
	})
}

// slowReads delays every read's completion by a millisecond.
type slowReads struct {
	Device
	c *vclock.Clock
}

func (d slowReads) SubmitRead(lba int64, buf []byte) *vclock.Future {
	inner := d.Device.SubmitRead(lba, buf)
	out := d.c.NewFuture()
	d.c.Go(func() {
		err := inner.Wait()
		d.c.Sleep(time.Millisecond)
		out.Complete(err)
	})
	return out
}

// ckptCloneDevice crash-clones the array right after each checkpoint
// record reaches the device, keeping every sector written so far, and
// hands the clone to check.
type ckptCloneDevice struct {
	Device
	c     *vclock.Clock
	raw   []*zns.Device
	mu    sync.Mutex
	data  []*vclock.Future // data writes submitted so far
	check func(clk *vclock.Clock, clones []*zns.Device)
}

func (d *ckptCloneDevice) SubmitWrite(lba int64, data []byte) *vclock.Future {
	if lba >= mdSegments*d.ZoneSectors() {
		fut := d.Device.SubmitWrite(lba, data)
		d.mu.Lock()
		d.data = append(d.data, fut)
		d.mu.Unlock()
		return fut
	}
	// A checkpoint: let every data write submitted before it land, then
	// write it and snapshot the devices. A block it references that was
	// not submitted before it is missing from the clone.
	d.mu.Lock()
	prior := d.data
	d.data = nil
	d.mu.Unlock()
	vclock.WaitAll(prior...)
	err := d.Device.SubmitWrite(lba, data).Wait()
	if err == nil && d.check != nil {
		cuts := map[int]int64{}
		for z := 0; z < d.raw[0].Config().NumZones; z++ {
			cuts[z] = 1 << 40
		}
		clk := vclock.New()
		clones := make([]*zns.Device, len(d.raw))
		for i, rd := range d.raw {
			clones[i] = rd.CrashClone(clk, nil, cuts)
		}
		d.check(clk, clones)
	}
	return d.c.Completed(err)
}

// TestCheckpointReferencesOnlySubmittedBlocks crash-clones the array at
// every checkpoint of a workload that keeps runs open on both log heads
// across syncs of other files and across cleaning. Mounting the clone
// must find every file readable and equal to a prefix of what was
// appended to it.
func TestCheckpointReferencesOnlySubmittedBlocks(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		dev, raw := newRaiznDevice(t, c)
		cd := &ckptCloneDevice{Device: dev, c: c, raw: raw}
		fs, err := Format(c, cd)
		if err != nil {
			t.Fatal(err)
		}
		written := map[string][]byte{} // appended so far, by name
		checks := 0
		cd.check = func(clk *vclock.Clock, clones []*zns.Device) {
			checks++
			clk.Run(func() {
				rcfg := raizn.DefaultConfig()
				rcfg.MaxOpenZones = 5
				v, err := raizn.Mount(clk, clones, rcfg)
				if err != nil {
					t.Errorf("checkpoint %d: raizn mount: %v", checks, err)
					return
				}
				fs2, err := Mount(clk, fio.RaiznTarget{V: v})
				if err != nil {
					t.Errorf("checkpoint %d: lfs mount: %v", checks, err)
					return
				}
				for _, name := range fs2.List() {
					f, _ := fs2.Open(name)
					got := make([]byte, f.Size())
					if err := f.ReadAt(got, 0); err != nil {
						t.Errorf("checkpoint %d: %s: %v", checks, name, err)
						continue
					}
					if want := written[name]; len(got) > len(want) || !bytes.Equal(got, want[:len(got)]) {
						t.Errorf("checkpoint %d: %s differs from what was appended", checks, name)
					}
				}
			})
		}
		rng := rand.New(rand.NewSource(11))
		capBlocks := int64(dev.NumZones()-mdSegments) * fs.segSz
		var total int64
		for i := 0; (total < capBlocks || fs.CleanRuns < 3) && !t.Failed(); i++ {
			// Hot files get small appends and frequent syncs; the Cold
			// file being written keeps an open run across them.
			name := fmt.Sprintf("f%d", i%5)
			temp := Temp(i % 2)
			if rng.Intn(3) == 0 || !fs.Exists(name) {
				if fs.Exists(name) {
					fs.Delete(name)
				}
				if _, err := fs.Create(name, temp); err != nil {
					t.Fatal(err)
				}
				written[name] = nil
			}
			f, _ := fs.Open(name)
			n := 1 + rng.Intn(40*fs.block)
			data := blockData(int64(i), n)
			// Recorded first: a checkpoint taken inside Append (by the
			// cleaner) may already include part of it.
			written[name] = append(written[name], data...)
			if err := f.Append(data); err != nil {
				t.Fatal(err)
			}
			total += int64(n / fs.block)
			if f.temp == Hot && rng.Intn(2) == 0 {
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		t.Logf("%d checkpoints checked", checks)
		if checks < 10 {
			t.Fatalf("only %d checkpoints checked", checks)
		}
	})
}
