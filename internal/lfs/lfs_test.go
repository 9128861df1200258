package lfs

import (
	"bytes"
	"math/rand"
	"testing"

	"raizn/internal/blockdev"
	"raizn/internal/fio"
	"raizn/internal/mdraid"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// newRaiznDevice builds a small RAIZN volume wrapped as an lfs.Device.
func newRaiznDevice(t *testing.T, c *vclock.Clock) (Device, []*zns.Device) {
	t.Helper()
	cfg := zns.DefaultConfig()
	cfg.NumZones = 16
	cfg.ZoneSize = 160
	cfg.ZoneCap = 128
	cfg.MaxOpenZones = 12
	cfg.MaxActiveZones = 16
	devs := make([]*zns.Device, 5)
	for i := range devs {
		devs[i] = zns.NewDevice(c, cfg)
	}
	rcfg := raizn.DefaultConfig()
	rcfg.MaxOpenZones = 5
	v, err := raizn.Create(c, devs, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return fio.RaiznTarget{V: v}, devs
}

func newBlockDevice(t *testing.T, c *vclock.Clock) Device {
	t.Helper()
	bcfg := blockdev.DefaultConfig()
	bcfg.NumSectors = 4096
	bcfg.PagesPerBlock = 64
	devs := make([]*blockdev.Device, 5)
	for i := range devs {
		devs[i] = blockdev.NewDevice(c, bcfg)
	}
	v, err := mdraid.New(c, devs, mdraid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewBlockDevice(fio.MdraidTarget{V: v}, 256)
}

// forEachBackend runs the test body on both backends.
func forEachBackend(t *testing.T, fn func(t *testing.T, c *vclock.Clock, dev Device)) {
	t.Run("raizn", func(t *testing.T) {
		c := vclock.New()
		c.Run(func() {
			dev, _ := newRaiznDevice(t, c)
			fn(t, c, dev)
		})
	})
	t.Run("mdraid", func(t *testing.T) {
		c := vclock.New()
		c.Run(func() {
			fn(t, c, newBlockDevice(t, c))
		})
	})
}

func TestCreateWriteRead(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, err := Format(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create("a.txt", Hot)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("hello log-structured world")
		if err := f.Append(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("got %q", got)
		}
	})
}

func TestLargeFileCrossesSegments(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, err := Format(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create("big", Cold)
		rng := rand.New(rand.NewSource(1))
		// Write ~1.5 segments worth of data in odd-sized chunks.
		want := make([]byte, 0, 400*fs.block)
		total := int(1.5 * float64(fs.segSz) * float64(fs.block))
		for len(want) < total {
			chunk := make([]byte, 1+rng.Intn(10000))
			rng.Read(chunk)
			if err := f.Append(chunk); err != nil {
				t.Fatal(err)
			}
			want = append(want, chunk...)
		}
		got := make([]byte, len(want))
		if err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("large file content mismatch")
		}
		// Random offset reads.
		for i := 0; i < 20; i++ {
			off := rng.Intn(len(want) - 100)
			n := 1 + rng.Intn(100)
			buf := make([]byte, n)
			if err := f.ReadAt(buf, int64(off)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want[off:off+n]) {
				t.Fatalf("read at %d mismatch", off)
			}
		}
	})
}

func TestDeleteAndRename(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, _ := Format(c, dev)
		f, _ := fs.Create("old", Cold)
		f.Append([]byte("data"))
		if err := fs.Rename("old", "new"); err != nil {
			t.Fatal(err)
		}
		if fs.Exists("old") || !fs.Exists("new") {
			t.Error("rename did not move the file")
		}
		if err := fs.Delete("new"); err != nil {
			t.Fatal(err)
		}
		if fs.Exists("new") {
			t.Error("delete did not remove the file")
		}
		if _, err := fs.Open("new"); err != ErrNotExist {
			t.Errorf("Open deleted file: %v", err)
		}
	})
}

func TestRenameReplacesTarget(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, _ := Format(c, dev)
		a, _ := fs.Create("a", Cold)
		a.Append([]byte("aaa"))
		b, _ := fs.Create("b", Cold)
		b.Append([]byte("bbbb"))
		if err := fs.Rename("a", "b"); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("b")
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != 3 {
			t.Errorf("size = %d, want 3 (a's content)", f.Size())
		}
	})
}

func TestSyncAndRemount(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, _ := Format(c, dev)
		f, _ := fs.Create("wal", Hot)
		payload := []byte("committed-transaction-record-0123456789")
		f.Append(payload)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		fs2, err := Mount(c, dev)
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		f2, err := fs2.Open("wal")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if err := f2.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("synced data lost across remount")
		}
		// The remounted FS must keep working.
		if err := f2.Append([]byte("more")); err != nil {
			t.Fatal(err)
		}
		if err := f2.Sync(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnsyncedDataLostAfterRemount(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, _ := Format(c, dev)
		f, _ := fs.Create("a", Hot)
		f.Append([]byte("sync me"))
		f.Sync()
		f.Append([]byte(" but not me"))
		// No sync: the second append must not survive.
		fs2, err := Mount(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := fs2.Open("a")
		if err != nil {
			t.Fatal(err)
		}
		if f2.Size() != int64(len("sync me")) {
			t.Errorf("size = %d, want %d", f2.Size(), len("sync me"))
		}
	})
}

func TestSegmentCleaning(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, _ := Format(c, dev)
		// Churn: create and delete files until the device wraps,
		// forcing the cleaner to run.
		blockBytes := fs.block
		rng := rand.New(rand.NewSource(7))
		keep := make(map[string][]byte)
		capBlocks := int64(dev.NumZones()-mdSegments) * fs.segSz
		churn := int(capBlocks) * 3
		for i := 0; i < churn/8; i++ {
			name := string(rune('A' + i%16))
			if fs.Exists(name) {
				fs.Delete(name)
			}
			f, err := fs.Create(name, Temp(i%2))
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 8*blockBytes-3)
			rng.Read(data)
			if err := f.Append(data); err != nil {
				t.Fatal(err)
			}
			keep[name] = data
		}
		if fs.CleanRuns == 0 {
			t.Error("cleaner never ran despite churn")
		}
		for name, want := range keep {
			f, err := fs.Open(name)
			if err != nil {
				t.Fatalf("Open(%s): %v", name, err)
			}
			got := make([]byte, len(want))
			if err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("file %s corrupted after cleaning", name)
			}
		}
	})
}

func TestTailVisibleBeforeSync(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, _ := Format(c, dev)
		f, _ := fs.Create("t", Hot)
		f.Append([]byte("abc"))
		buf := make([]byte, 3)
		if err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "abc" {
			t.Errorf("tail read = %q", buf)
		}
		// Read spanning a synced block and the in-memory tail.
		big := make([]byte, 5000)
		for i := range big {
			big[i] = byte(i)
		}
		f.Append(big)
		f.Sync()
		f.Append([]byte("tail!"))
		out := make([]byte, 100)
		if err := f.ReadAt(out, f.Size()-100); err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte{}, big[len(big)-95-3+3:]...), []byte("tail!")...)
		_ = want
		if string(out[95:]) != "tail!" {
			t.Errorf("mixed read tail = %q", out[95:])
		}
	})
}

func TestCheckpointRollover(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, _ := Format(c, dev)
		f, _ := fs.Create("x", Hot)
		// Enough syncs to fill a checkpoint pack several times over.
		for i := 0; i < 3*int(fs.segSz); i++ {
			f.Append([]byte{byte(i)})
			if err := f.Sync(); err != nil {
				t.Fatalf("sync %d: %v", i, err)
			}
		}
		fs2, err := Mount(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := fs2.Open("x")
		if err != nil {
			t.Fatal(err)
		}
		if f2.Size() != int64(3*int(fs.segSz)) {
			t.Errorf("size = %d, want %d", f2.Size(), 3*int(fs.segSz))
		}
	})
}

// TestCleaningCrashConsistency churns the filesystem to force cleaning,
// then crashes (keeping only flushed data) and remounts: every file whose
// write was followed by a Sync must read back exactly.
func TestCleaningCrashConsistency(t *testing.T) {
	t.Run("raizn", func(t *testing.T) {
		c := vclock.New()
		c.Run(func() {
			dev, raw := newRaiznDevice(t, c)
			fs, err := Format(c, dev)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(21))
			synced := map[string][]byte{}
			capBlocks := int64(dev.NumZones()-mdSegments) * fs.segSz
			for i := 0; i < int(capBlocks)/4; i++ {
				name := string(rune('A' + i%12))
				if fs.Exists(name) {
					fs.Delete(name)
					delete(synced, name)
				}
				f, err := Create2(fs, name, Temp(i%2))
				if err != nil {
					t.Fatal(err)
				}
				data := make([]byte, 6*fs.block+17)
				rng.Read(data)
				if err := f.Append(data); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				synced[name] = data
			}
			if fs.CleanRuns == 0 {
				t.Fatal("cleaner never ran; test is not exercising the crash window")
			}
			for _, d := range raw {
				d.PowerLoss(nil) // keep only flushed data
			}
			fs2, err := Mount(c, dev)
			if err != nil {
				t.Fatalf("Mount after cleaning crash: %v", err)
			}
			for name, want := range synced {
				f, err := fs2.Open(name)
				if err != nil {
					t.Fatalf("Open(%s): %v", name, err)
				}
				got := make([]byte, len(want))
				if err := f.ReadAt(got, 0); err != nil {
					t.Fatalf("ReadAt(%s): %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("file %s corrupted after cleaning crash", name)
				}
			}
		})
	})
}

// Create2 is Create with the existing-file tolerance churn tests need.
func Create2(fs *FS, name string, temp Temp) (*File, error) {
	if fs.Exists(name) {
		fs.Delete(name)
	}
	return fs.Create(name, temp)
}

// TestConcurrentWritersOrderingGate appends to many files from many
// goroutines at once: the write-submission gate must keep every zoned
// device write at its write pointer (any ordering bug surfaces as an
// ErrNotSequential from the RAIZN volume).
func TestConcurrentWritersOrderingGate(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		dev, _ := newRaiznDevice(t, c)
		fs, err := Format(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		const writers = 6
		wg := c.NewWaitGroup()
		payloads := make([][]byte, writers)
		for wi := 0; wi < writers; wi++ {
			wi := wi
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				name := string(rune('a' + wi))
				f, err := fs.Create(name, Temp(wi%2))
				if err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				rng := rand.New(rand.NewSource(int64(wi)))
				var all []byte
				for i := 0; i < 40; i++ {
					chunk := make([]byte, 1+rng.Intn(3000))
					rng.Read(chunk)
					if err := f.Append(chunk); err != nil {
						t.Errorf("append %s: %v", name, err)
						return
					}
					all = append(all, chunk...)
				}
				if err := f.Sync(); err != nil {
					t.Errorf("sync %s: %v", name, err)
					return
				}
				payloads[wi] = all
			})
		}
		wg.Wait()
		for wi := 0; wi < writers; wi++ {
			name := string(rune('a' + wi))
			f, err := fs.Open(name)
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			got := make([]byte, len(payloads[wi]))
			if err := f.ReadAt(got, 0); err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
			if !bytes.Equal(got, payloads[wi]) {
				t.Fatalf("file %s content mismatch", name)
			}
		}
	})
}

// TestCleaningRelocatesLiveBlocks interleaves a long-lived file with
// churn so victim segments contain live blocks that must be moved (the
// relocation path, not just whole-segment invalidation).
func TestCleaningRelocatesLiveBlocks(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, err := Format(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		keeper, _ := fs.Create("keeper", Cold)
		var keeperData []byte
		capBlocks := int64(dev.NumZones()-mdSegments) * fs.segSz
		for round := 0; round < int(capBlocks)/3; round++ {
			// Grow the keeper by one block: its blocks end up strewn
			// across the churn segments.
			chunk := make([]byte, fs.block)
			rng.Read(chunk)
			if err := keeper.Append(chunk); err != nil {
				t.Fatal(err)
			}
			keeperData = append(keeperData, chunk...)
			// Churn: short-lived files filling the rest of the log.
			name := "churn"
			if fs.Exists(name) {
				fs.Delete(name)
			}
			f, _ := fs.Create(name, Cold)
			junk := make([]byte, 5*fs.block)
			rng.Read(junk)
			if err := f.Append(junk); err != nil {
				t.Fatal(err)
			}
		}
		if fs.CleanedBlocks == 0 {
			t.Fatal("no live blocks were relocated; test ineffective")
		}
		got := make([]byte, len(keeperData))
		if err := keeper.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keeperData) {
			t.Error("keeper corrupted by cleaning relocation")
		}
		// Filesystem-level sync + remount keeps the relocated blocks.
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if fs.FreeSegments() < 0 {
			t.Error("negative free segments")
		}
		names := fs.List()
		if len(names) == 0 {
			t.Error("List returned nothing")
		}
		fs2, err := Mount(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := fs2.Open("keeper")
		if err != nil {
			t.Fatal(err)
		}
		got2 := make([]byte, len(keeperData))
		if err := k2.ReadAt(got2, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, keeperData) {
			t.Error("keeper corrupted across remount")
		}
		if err := fs2.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := fs2.Create("after-close", Hot); err != ErrClosed {
			t.Errorf("create after close: %v", err)
		}
	})
}

// TestReadDeletedFile checks that a handle to a deleted or rename-replaced
// file reads ErrNotExist rather than blocks that are no longer its own.
func TestReadDeletedFile(t *testing.T) {
	forEachBackend(t, func(t *testing.T, c *vclock.Clock, dev Device) {
		fs, _ := Format(c, dev)
		a, _ := fs.Create("a", Cold)
		b, _ := fs.Create("b", Cold)
		for _, f := range []*File{a, b} {
			if err := f.Append(make([]byte, 3*fs.block)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Delete("a"); err != nil {
			t.Fatal(err)
		}
		c2, _ := fs.Create("c", Cold)
		c2.Append([]byte("x"))
		if err := fs.Rename("c", "b"); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, fs.block)
		for name, f := range map[string]*File{"deleted": a, "replaced": b} {
			if err := f.ReadAt(buf, 0); err != ErrNotExist {
				t.Errorf("%s file: ReadAt = %v, want ErrNotExist", name, err)
			}
		}
	})
}
