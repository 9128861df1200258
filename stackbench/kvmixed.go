package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"raizn/internal/kvs"
	"raizn/internal/lfs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// kv-mixed: kvs on lfs on one 5-device raizn array. A preload fills a key
// space far larger than the 256 KiB memtable, then a closed loop of
// clients each runs a fixed number of uniform-key Puts and Gets.
const (
	kvZones     = 16   // zones per device: small enough that lfs cleans segments
	kvKeys      = 2000 // preloaded keys: 8 MB, 30x the 256 KiB memtable
	kvValue     = 4000 // value bytes (the paper's db_bench value size)
	kvClients   = 4
	kvOpsPerCli = 1000
	kvPutShare  = 0.5
)

// lfsShim is the lfs.Device the benchmark installs between lfs and raizn.
// It passes every call through to the raizn volume and, in the traced
// run, records a span around it.
type lfsShim struct {
	v   *raizn.Volume
	clk *vclock.Clock
	rec *recorder
}

var _ lfs.Device = lfsShim{}

func (s lfsShim) SectorSize() int    { return s.v.SectorSize() }
func (s lfsShim) NumSectors() int64  { return s.v.NumSectors() }
func (s lfsShim) ZoneSectors() int64 { return s.v.ZoneSectors() }
func (s lfsShim) NumZones() int      { return s.v.NumZones() }

func (s lfsShim) SubmitWrite(lba int64, data []byte) *vclock.Future {
	sp := s.rec.begin(s.clk, "lfs.dev_write", int64(len(data)))
	fut := s.v.SubmitWrite(lba, data, 0)
	s.rec.endAsync(s.clk, sp, fut)
	return fut
}

func (s lfsShim) SubmitRead(lba int64, buf []byte) *vclock.Future {
	sp := s.rec.begin(s.clk, "lfs.dev_read", int64(len(buf)))
	fut := s.v.SubmitRead(lba, buf)
	s.rec.endAsync(s.clk, sp, fut)
	return fut
}

func (s lfsShim) Flush() error {
	sp := s.rec.begin(s.clk, "lfs.dev_flush", 0)
	err := s.v.Flush()
	s.rec.end(s.clk, sp, err)
	return err
}

func (s lfsShim) ResetZone(z int) error {
	sp := s.rec.begin(s.clk, "lfs.dev_reset", 0)
	err := s.v.ResetZone(z)
	s.rec.end(s.clk, sp, err)
	return err
}

// kvValues builds and checks versioned values: key index, version and the
// repetition tag up front, seeded filler after.
type kvValues struct{ st *stamper }

func kvKey(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

func (kv kvValues) value(key int, ver uint64) []byte {
	v := make([]byte, kvValue)
	binary.LittleEndian.PutUint64(v[0:8], uint64(key))
	binary.LittleEndian.PutUint64(v[8:16], ver)
	binary.LittleEndian.PutUint64(v[16:24], kv.st.tag)
	copy(v[24:], kv.st.body(int64(key)+int64(ver)))
	return v
}

func (kv kvValues) ok(got []byte, key int, ver uint64) bool {
	return bytes.Equal(got, kv.value(key, ver))
}

func runKVMixed(rc repConfig) (*repResult, error) {
	res := &repResult{}
	nKeys := rc.scaled(kvKeys, 200)
	ops := rc.scaled(kvOpsPerCli, 50)
	rng := rand.New(rand.NewSource(rc.seed))
	vals := kvValues{st: newStamper(rng.Int63(), 4096)}
	order := rng.Perm(nKeys)
	cliSeeds := make([]int64, kvClients)
	for i := range cliSeeds {
		cliSeeds[i] = rng.Int63()
	}
	latest := make([]uint64, nKeys) // version acknowledged last, per key

	var runErr error
	var clk2 *vclock.Clock
	var clones []*zns.Device
	w0 := time.Now()
	clk := vclock.New()
	tr := rc.rec.tracerFor(clk)
	clk.Run(func() {
		vol, devs, err := newArray(clk, kvZones, tr)
		if err != nil {
			runErr = err
			return
		}
		shim := lfsShim{v: vol, clk: clk, rec: rc.rec}
		fsys, err := lfs.Format(clk, shim)
		if err != nil {
			runErr = fmt.Errorf("lfs format: %w", err)
			return
		}
		db, err := kvs.Open(clk, fsys, kvs.Options{})
		if err != nil {
			runErr = fmt.Errorf("kvs open: %w", err)
			return
		}
		defer func() {
			if err := db.Close(); err != nil && runErr == nil {
				runErr = fmt.Errorf("kvs close: %w", err)
			}
		}()
		for _, k := range order {
			if err := db.Put(kvKey(k), vals.value(k, 0)); err != nil {
				runErr = fmt.Errorf("preload put: %w", err)
				return
			}
		}
		if err := db.WaitIdle(); err != nil {
			runErr = fmt.Errorf("preload drain: %w", err)
			return
		}
		res.setupWall = time.Since(w0)

		dev0 := snapDevices(devs)
		wa0 := waBytes(vol)
		st0 := vol.Stats()
		flush0, compact0, cbytes0 := db.FlushCount, db.CompactCount, db.CompactBytes

		type cliOut struct {
			putLat, getLat     []time.Duration
			putBytes, getBytes int64
			errs, mismatches   int64
		}
		outs := make([]cliOut, kvClients)
		pc := startPhase(clk, rc.rec, tr)
		wg := clk.NewWaitGroup()
		for c := 0; c < kvClients; c++ {
			c := c
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				o := &outs[c]
				r := rand.New(rand.NewSource(cliSeeds[c]))
				mine := (nKeys - c + kvClients - 1) / kvClients
				for i := 0; i < ops; i++ {
					k := c + kvClients*r.Intn(mine)
					key := kvKey(k)
					if r.Float64() < kvPutShare {
						ver := latest[k] + 1
						val := vals.value(k, ver)
						t := clk.Now()
						sp := rc.rec.begin(clk, "kvs.put", int64(len(key)+len(val)))
						err := db.Put(key, val)
						rc.rec.end(clk, sp, err)
						if err != nil {
							o.errs++
							continue
						}
						o.putLat = append(o.putLat, clk.Now()-t)
						o.putBytes += int64(len(key) + len(val))
						latest[k] = ver
						continue
					}
					t := clk.Now()
					sp := rc.rec.begin(clk, "kvs.get", int64(len(key)))
					got, err := db.Get(key)
					rc.rec.end(clk, sp, err)
					if err != nil {
						o.errs++
						continue
					}
					o.getLat = append(o.getLat, clk.Now()-t)
					o.getBytes += int64(len(got))
					if !vals.ok(got, k, latest[k]) {
						o.mismatches++
					}
				}
			})
		}
		wg.Wait()
		pc.stop(res, tr)

		var errs, mism int64
		for _, o := range outs {
			res.writeLat = append(res.writeLat, o.putLat...)
			res.readLat = append(res.readLat, o.getLat...)
			res.writeBytes += o.putBytes
			res.readBytes += o.getBytes
			errs += o.errs
			mism += o.mismatches
		}
		res.attempted += int64(kvClients * ops)
		res.ops = int64(len(res.writeLat) + len(res.readLat))
		res.fail(errs, "kvs put/get errors")
		res.fail(mism, "kvs get returned a value other than the last acknowledged version")

		// Flush policy: nothing synchronous during the run, then one
		// kvs Flush (after background work drains) and one lfs Sync.
		if err := db.Flush(); err != nil {
			runErr = fmt.Errorf("kvs flush: %w", err)
			return
		}
		if err := db.WaitIdle(); err != nil {
			runErr = fmt.Errorf("kvs drain: %w", err)
			return
		}
		if err := fsys.Sync(); err != nil {
			runErr = fmt.Errorf("lfs sync: %w", err)
			return
		}
		dev := snapDevices(devs).sub(dev0)
		res.flashWAF = ratio(float64(dev.program), float64(res.writeBytes))
		if err := checkWAClosure(vol); err != nil {
			res.fail(1, err.Error())
		} else {
			res.checks = append(res.checks, "kv-mixed raizn WAReport categories equal device host bytes")
		}

		if rc.rec != nil {
			st := vol.Stats()
			m := newLayerMap()
			ix := indexSpans(rc.rec)
			fillKVLayers(m, ix, res, db.FlushCount-flush0, db.CompactCount-compact0, db.CompactBytes-cbytes0)
			// The shim's calls are raizn's SubmitWrite/SubmitRead.
			m["raizn.write_self_host_us"] = ix.selfMedianUS("lfs.dev_write")
			m["raizn.read_self_host_us"] = ix.selfMedianUS("lfs.dev_read")
			fillRaiznLayers(m, raiznInputs{
				roots: rc.rec.roots(), dev: dev, virt: res.virt, userBytes: res.writeBytes,
				wa: subWA(waBytes(vol), wa0), coalesced: st.CoalescedSubWrites - st0.CoalescedSubWrites,
				relocations: st.Relocations - st0.Relocations,
			})
			fillRuntimeLayers(m, ix, res)
			res.layer = m
		}

		clk2, clones = crashClone(devs)
	})
	if runErr != nil {
		return nil, runErr
	}
	if err := verifyKVCrash(rc, res, clk2, clones, vals, latest); err != nil {
		return nil, err
	}
	return res, nil
}

// verifyKVCrash mounts the crash clone (raizn.Mount, lfs.Mount, kvs.Open)
// on its own clock, times the recovery and reads back every key's last
// acknowledged version.
func verifyKVCrash(rc repConfig, res *repResult, clk *vclock.Clock, devs []*zns.Device, vals kvValues, latest []uint64) error {
	var runErr error
	clk.Run(func() {
		rc.rec.setOn(true)
		t0 := clk.Now()
		sp := rc.rec.begin(clk, "raizn.mount", 0)
		vol, err := raizn.Mount(clk, devs, raizn.DefaultConfig())
		rc.rec.end(clk, sp, err)
		if err != nil {
			runErr = fmt.Errorf("crash-restart raizn mount: %w", err)
			return
		}
		t1 := clk.Now()
		sp = rc.rec.begin(clk, "lfs.mount", 0)
		fsys, err := lfs.Mount(clk, lfsShim{v: vol, clk: clk})
		rc.rec.end(clk, sp, err)
		if err != nil {
			runErr = fmt.Errorf("crash-restart lfs mount: %w", err)
			return
		}
		t2 := clk.Now()
		sp = rc.rec.begin(clk, "kvs.open", 0)
		db, err := kvs.Open(clk, fsys, kvs.Options{})
		rc.rec.end(clk, sp, err)
		rc.rec.setOn(false)
		if err != nil {
			runErr = fmt.Errorf("crash-restart kvs open: %w", err)
			return
		}
		t3 := clk.Now()
		res.recoverT = t3 - t0
		if res.layer != nil {
			res.layer["raizn.mount_ms"] = ms(t1 - t0)
			res.layer["lfs.mount_ms"] = ms(t2 - t1)
			res.layer["kvs.open_ms"] = ms(t3 - t2)
		}
		var miss int64
		for k, ver := range latest {
			got, err := db.Get(kvKey(k))
			if err != nil && !errors.Is(err, kvs.ErrNotFound) {
				runErr = fmt.Errorf("crash-restart get: %w", err)
				return
			}
			if err != nil || !vals.ok(got, k, ver) {
				miss++
			}
		}
		res.attempted += int64(len(latest))
		res.fail(miss, "kvs keys missing or stale after crash-restart")
		if miss == 0 {
			res.checks = append(res.checks, "kv-mixed crash-restart read back every key's last acknowledged version")
		}
		if err := db.Close(); err != nil {
			runErr = fmt.Errorf("crash-restart kvs close: %w", err)
		}
	})
	return runErr
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
