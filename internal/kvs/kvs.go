// Package kvs implements a log-structured merge-tree key-value store in
// the role RocksDB plays in the paper's application benchmarks (§6.3):
// writes land in a WAL and memtable, memtables flush to sorted tables,
// and a background compactor merges tables down a leveled hierarchy —
// producing exactly the sequential-write/compaction-read IO mix that
// distinguishes ZNS from FTL devices under sustained load.
//
// The store runs on the lfs filesystem, which in turn runs on either a
// RAIZN or an mdraid volume.
package kvs

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"raizn/internal/lfs"
	"raizn/internal/vclock"
)

// Errors.
var (
	ErrNotFound = errors.New("kvs: key not found")
	ErrClosed   = errors.New("kvs: db closed")
)

// walFactor bounds a WAL at walFactor memtables' worth of records.
const walFactor = 4

// Options tune the store. Zero values pick scaled-down defaults.
type Options struct {
	MemtableBytes   int64 // flush threshold
	L0Files         int   // L0 file count that triggers compaction
	LevelRatio      int64 // size ratio between adjacent levels
	BaseLevelBytes  int64 // L1 size target
	TargetFileBytes int64 // compaction output file size
	MaxLevels       int
	SyncWrites      bool // fsync the WAL on every write
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 256 << 10
	}
	if o.L0Files == 0 {
		o.L0Files = 4
	}
	if o.LevelRatio == 0 {
		o.LevelRatio = 10
	}
	if o.BaseLevelBytes == 0 {
		o.BaseLevelBytes = 1 << 20
	}
	if o.TargetFileBytes == 0 {
		o.TargetFileBytes = 512 << 10
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 4
	}
	return o
}

// DB is an open store. Methods are safe for concurrent use by simulated
// goroutines.
type DB struct {
	fs  *lfs.FS
	clk *vclock.Clock
	opt Options

	mu       sync.Mutex
	cond     *vclock.Cond
	mem      *memtable
	imm      *memtable // memtable being flushed
	wal      *lfs.File
	walName  string
	walBytes int64 // record bytes appended to wal
	immWAL   string
	levels   [][]*tableMeta // levels[0] newest-first; deeper levels key-ordered
	nextFile uint64
	seq      uint64
	closed   bool
	bgErr    error
	bgBusy   bool // flush/compaction running

	// Stats.
	FlushCount   int64
	CompactCount int64
	CompactBytes int64
}

// Open creates or reopens a store on the filesystem. Existing state is
// recovered from the MANIFEST and WAL.
func Open(clk *vclock.Clock, fsys *lfs.FS, opt Options) (*DB, error) {
	db := &DB{
		fs:  fsys,
		clk: clk,
		opt: opt.withDefaults(),
	}
	db.cond = clk.NewCond(&db.mu)
	db.levels = make([][]*tableMeta, db.opt.MaxLevels)
	db.mem = newMemtable()

	if err := db.recover(); err != nil {
		return nil, err
	}
	if db.wal == nil {
		if err := db.rotateWALLocked(); err != nil {
			return nil, err
		}
		if err := db.writeManifestLocked(); err != nil {
			return nil, err
		}
	}
	clk.Go(db.background)
	return db, nil
}

// Put stores a key/value pair.
func (db *DB) Put(key, value []byte) error { return db.write(key, value, false) }

// Delete removes a key (writing a tombstone).
func (db *DB) Delete(key []byte) error { return db.write(key, nil, true) }

func (db *DB) write(key, value []byte, tombstone bool) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.bgErr != nil {
		err := db.bgErr
		db.mu.Unlock()
		return err
	}
	db.seq++
	seq := db.seq
	rec := encodeWALRecord(key, value, tombstone, seq)
	wal := db.wal
	db.mem.put(string(key), value, seq, tombstone)
	db.walBytes += int64(len(rec))
	// Overwrites do not grow the memtable, so the WAL is bounded too
	// (RocksDB's max_total_wal_size): without the bound, an update-heavy
	// key set that fits in one memtable would grow its WAL until the
	// filesystem ran out of space.
	memFull := db.mem.bytes >= db.opt.MemtableBytes || db.walBytes >= walFactor*db.opt.MemtableBytes
	if memFull {
		// Hand the memtable to the background flusher; writers stall
		// only if the previous flush is still running.
		for db.imm != nil {
			db.cond.Wait()
			if db.bgErr != nil {
				err := db.bgErr
				db.mu.Unlock()
				return err
			}
		}
		db.imm = db.mem
		db.immWAL = db.walName
		db.mem = newMemtable()
		if err := db.rotateWALLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
		db.cond.Broadcast() // wake the background worker
	}
	db.mu.Unlock()

	if err := wal.Append(rec); err != nil {
		return err
	}
	if db.opt.SyncWrites {
		return wal.Sync()
	}
	return nil
}

// Get returns the value for key.
func (db *DB) Get(key []byte) ([]byte, error) {
	for {
		v, err := db.get(key)
		if err != errRetired {
			return v, err
		}
	}
}

// errRetired reports a read that lost its table to a compaction: the
// table was retired and deleted between the snapshot and the read, and
// its entries now live in the compaction's outputs, so the read looks
// again.
var errRetired = errors.New("kvs: table retired during read")

// tableErr maps a table read error to errRetired when the table's file
// is gone because a compaction retired it.
func (db *DB) tableErr(t *tableMeta, err error) error {
	if err != lfs.ErrNotExist {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, lvl := range db.levels {
		for _, u := range lvl {
			if u == t {
				return err
			}
		}
	}
	return errRetired
}

func (db *DB) get(key []byte) ([]byte, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	k := string(key)
	if e, ok := db.mem.get(k); ok {
		db.mu.Unlock()
		if e.tombstone {
			return nil, ErrNotFound
		}
		return append([]byte(nil), e.value...), nil
	}
	if db.imm != nil {
		if e, ok := db.imm.get(k); ok {
			db.mu.Unlock()
			if e.tombstone {
				return nil, ErrNotFound
			}
			return append([]byte(nil), e.value...), nil
		}
	}
	// Snapshot the table lists; table files are immutable.
	var tables []*tableMeta
	for _, t := range db.levels[0] {
		if k >= t.minKey && k <= t.maxKey {
			tables = append(tables, t)
		}
	}
	for _, lvl := range db.levels[1:] {
		if t := findTable(lvl, k); t != nil {
			tables = append(tables, t)
		}
	}
	db.mu.Unlock()

	for _, t := range tables {
		e, ok, err := t.get(db.fs, k)
		if err != nil {
			return nil, db.tableErr(t, err)
		}
		if ok {
			if e.tombstone {
				return nil, ErrNotFound
			}
			return e.value, nil
		}
	}
	return nil, ErrNotFound
}

// KV is one key/value pair returned by Scan.
type KV struct {
	Key   string
	Value []byte
}

// Scan returns up to limit live pairs with key >= start, in key order.
func (db *DB) Scan(start string, limit int) ([]KV, error) {
	for {
		kvs, err := db.scan(start, limit)
		if err != errRetired {
			return kvs, err
		}
	}
}

func (db *DB) scan(start string, limit int) ([]KV, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	sources := make([]*memtable, 0, 2)
	sources = append(sources, db.mem)
	if db.imm != nil {
		sources = append(sources, db.imm)
	}
	var tables []*tableMeta
	for _, lvl := range db.levels {
		for _, t := range lvl {
			if t.maxKey >= start {
				tables = append(tables, t)
			}
		}
	}
	db.mu.Unlock()

	// Merge by fetching a prefix from every source. A source that
	// saturates its fetch window may be hiding keys beyond its last
	// returned key, so only keys at or below the lowest such cutoff are
	// trustworthy; widen the window until limit keys survive.
	fetch := limit + 8 // slack for tombstones
	for {
		best := map[string]entry{}
		cutoff := ""
		saturated := false
		consider := func(k string, e entry) {
			if prev, ok := best[k]; !ok || e.seq > prev.seq {
				best[k] = e
			}
		}
		note := func(n int, last string) {
			if n == fetch && (!saturated || last < cutoff) {
				saturated = true
				cutoff = last
			}
		}
		for _, m := range sources {
			n, last := m.scan(start, fetch, consider)
			note(n, last)
		}
		for _, t := range tables {
			n, last, err := t.scan(db.fs, start, fetch, consider)
			if err != nil {
				return nil, db.tableErr(t, err)
			}
			note(n, last)
		}

		keys := make([]string, 0, len(best))
		for k := range best {
			if !saturated || k <= cutoff {
				keys = append(keys, k)
			}
		}
		sortStrings(keys)
		out := make([]KV, 0, limit)
		for _, k := range keys {
			e := best[k]
			if e.tombstone {
				continue
			}
			out = append(out, KV{Key: k, Value: e.value})
			if len(out) == limit {
				break
			}
		}
		if len(out) == limit || !saturated {
			return out, nil
		}
		fetch *= 2
	}
}

// Flush forces the current memtable to disk and waits for it.
func (db *DB) Flush() error {
	db.mu.Lock()
	for db.imm != nil {
		db.cond.Wait()
	}
	if db.mem.count() == 0 {
		db.mu.Unlock()
		return nil
	}
	db.imm = db.mem
	db.immWAL = db.walName
	db.mem = newMemtable()
	if err := db.rotateWALLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	db.cond.Broadcast()
	for db.imm != nil && db.bgErr == nil {
		db.cond.Wait()
	}
	err := db.bgErr
	db.mu.Unlock()
	return err
}

// WaitIdle blocks until no flush or compaction work is pending — useful
// for steady-state measurements.
func (db *DB) WaitIdle() error {
	db.mu.Lock()
	for db.bgErr == nil && (db.imm != nil || db.bgBusy || db.compactionNeededLocked() >= 0) {
		db.cond.Wait()
	}
	err := db.bgErr
	db.mu.Unlock()
	return err
}

// Close flushes, waits for in-flight background work, and shuts the
// worker down.
func (db *DB) Close() error {
	if err := db.Flush(); err != nil {
		return err
	}
	db.mu.Lock()
	db.closed = true
	db.cond.Broadcast()
	for db.bgBusy {
		db.cond.Wait()
	}
	db.mu.Unlock()
	return db.fs.Sync()
}

func (db *DB) fileName(kind string, num uint64) string {
	return fmt.Sprintf("%s_%06d", kind, num)
}

func (db *DB) rotateWALLocked() error {
	db.nextFile++
	name := db.fileName("wal", db.nextFile)
	f, err := db.fs.Create(name, lfs.Hot)
	if err != nil {
		return err
	}
	db.wal = f
	db.walName = name
	db.walBytes = 0
	return nil
}

// findTable binary-searches a key-ordered level for the table whose range
// contains k.
func findTable(lvl []*tableMeta, k string) *tableMeta {
	lo, hi := 0, len(lvl)
	for lo < hi {
		mid := (lo + hi) / 2
		if lvl[mid].maxKey < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(lvl) && k >= lvl[lo].minKey && k <= lvl[lo].maxKey {
		return lvl[lo]
	}
	return nil
}

func sortStrings(s []string) { sort.Strings(s) }
