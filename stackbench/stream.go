package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// stream: direct raizn.Volume use. Zone writers write whole stripes
// sequentially at queue depth, then a closed loop of random 16 KiB reads
// is verified across everything written. kvs, lfs, volmgr and partial
// parity are bypassed.
const (
	streamDevZones      = 14 // zones per device: 11 logical zones hold the preload and the writers
	streamPreloadZones  = 2  // logical zones filled during set-up
	streamWriters       = 8  // each writes its own logical zone
	streamStripes       = 32 // most stripes a writer writes (a zone holds 32)
	streamMaxStripes    = 2  // a write is 1..2 whole stripes
	streamQD            = 4  // outstanding writes per writer
	streamReaders       = 4
	streamReadsPerRdr   = 1500
	streamReadSectors   = 4 // 16 KiB reads
	streamReadbackChunk = 256
)

// latLog collects latencies from completion callbacks.
type latLog struct {
	mu    sync.Mutex
	lat   []time.Duration
	bytes int64
	errs  int64
}

func (l *latLog) add(d time.Duration, n int64, err error) {
	l.mu.Lock()
	if err != nil {
		l.errs++
	} else {
		l.lat = append(l.lat, d)
		l.bytes += n
	}
	l.mu.Unlock()
}

// writeZone writes stripes whole stripes into logical zone z from its
// start, keeping qd writes outstanding, with sizes drawn from rng. It
// returns once every write's completion has been logged.
func writeZone(clk *vclock.Clock, rec *recorder, vol *raizn.Volume, st *stamper, rng *rand.Rand, z int, stripes, qd int, log *latLog) {
	ss := vol.StripeSectors()
	sector := int64(vol.SectorSize())
	lba := int64(z) * vol.ZoneSectors()
	// Waiters wake before Subscribe callbacks run, so completion is
	// tracked by the callbacks themselves, not by waiting on the futures.
	logged := clk.NewWaitGroup()
	var out []*vclock.Future
	for left := stripes; left > 0; {
		n := min(1+rng.Intn(streamMaxStripes), left)
		left -= n
		buf := make([]byte, int64(n)*ss*sector)
		st.fill(buf, lba)
		if len(out) == qd {
			_ = out[0].Wait() // errors are logged by the callback
			out = out[1:]
		}
		t := clk.Now()
		sp := rec.begin(clk, "raizn.write", int64(len(buf)))
		fut := vol.SubmitWrite(lba, buf, 0)
		rec.endAsync(clk, sp, fut)
		size := int64(len(buf))
		logged.Add(1)
		fut.Subscribe(func(err error) {
			log.add(clk.Now()-t, size, err)
			logged.Done()
		})
		out = append(out, fut)
		lba += int64(n) * ss
	}
	logged.Wait()
}

func runStream(rc repConfig) (*repResult, error) {
	res := &repResult{}
	stripes := rc.scaled(streamStripes, 4)
	reads := rc.scaled(streamReadsPerRdr, 50)
	rng := rand.New(rand.NewSource(rc.seed))
	st := newStamper(rng.Int63(), 4096)
	seeds := make([]int64, streamWriters+streamReaders+1)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	var runErr error
	var clk2 *vclock.Clock
	var clones []*zns.Device
	written := make(map[int]int64) // logical zone -> sectors written
	w0 := time.Now()
	clk := vclock.New()
	tr := rc.rec.tracerFor(clk)
	clk.Run(func() {
		vol, devs, err := newArray(clk, streamDevZones, tr)
		if err != nil {
			runErr = err
			return
		}
		zs := vol.ZoneSectors()
		var userBytes int64
		pre := &latLog{}
		prng := rand.New(rand.NewSource(seeds[len(seeds)-1]))
		for z := 0; z < streamPreloadZones; z++ {
			writeZone(clk, nil, vol, st, prng, z, int(zs/vol.StripeSectors()), streamQD, pre)
			written[z] = zs
		}
		userBytes += pre.bytes
		if pre.errs != 0 {
			runErr = fmt.Errorf("preload: %d write errors", pre.errs)
			return
		}
		res.setupWall = time.Since(w0)

		dev0 := snapDevices(devs)
		wa0 := waBytes(vol)
		st0 := vol.Stats()
		wlog, rlog := &latLog{}, &latLog{}
		pc := startPhase(clk, rc.rec, tr)
		wg := clk.NewWaitGroup()
		for w := 0; w < streamWriters; w++ {
			z := streamPreloadZones + w
			r := rand.New(rand.NewSource(seeds[w]))
			n := stripes*3/4 + r.Intn(stripes/4+1) // each writer fills 3/4 to all of its zone
			written[z] = int64(n) * vol.StripeSectors()
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				writeZone(clk, rc.rec, vol, st, r, z, n, streamQD, wlog)
			})
		}
		wg.Wait()
		zones := streamPreloadZones + streamWriters
		var total int64
		for z := 0; z < zones; z++ {
			total += written[z]
		}
		var mism int64
		var mu sync.Mutex
		for rd := 0; rd < streamReaders; rd++ {
			r := rand.New(rand.NewSource(seeds[streamWriters+rd]))
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				buf := make([]byte, streamReadSectors*vol.SectorSize())
				for i := 0; i < reads; i++ {
					// Uniform over the written sectors, kept inside one zone.
					p := r.Int63n(total)
					z := 0
					for p >= written[z] {
						p -= written[z]
						z++
					}
					p = min(p, written[z]-streamReadSectors)
					lba := int64(z)*zs + p
					t := clk.Now()
					sp := rc.rec.begin(clk, "raizn.read", int64(len(buf)))
					fut := vol.SubmitRead(lba, buf)
					rc.rec.endAsync(clk, sp, fut)
					err := fut.Wait()
					rlog.add(clk.Now()-t, int64(len(buf)), err)
					if err == nil {
						if bad := st.bad(buf, lba); bad != 0 {
							mu.Lock()
							mism += bad
							mu.Unlock()
						}
					}
				}
			})
		}
		wg.Wait()
		pc.stop(res, tr)

		res.writeLat, res.readLat = wlog.lat, rlog.lat
		res.writeBytes, res.readBytes = wlog.bytes, rlog.bytes
		res.ops = int64(len(wlog.lat) + len(rlog.lat))
		res.attempted += res.ops + wlog.errs + rlog.errs
		res.fail(wlog.errs+rlog.errs, "raizn write/read errors")
		res.fail(mism, "stream read sectors with a wrong stamp")
		userBytes += wlog.bytes

		// Flush policy: one raizn Flush after the run.
		rc.rec.setOn(true)
		sp := rc.rec.begin(clk, "raizn.flush", 0)
		err = vol.Flush()
		rc.rec.end(clk, sp, err)
		rc.rec.setOn(false)
		if err != nil {
			runErr = fmt.Errorf("flush: %w", err)
			return
		}
		dev := snapDevices(devs).sub(dev0)
		res.flashWAF = ratio(float64(dev.program), float64(res.writeBytes))
		if err := checkWAClosure(vol); err != nil {
			res.fail(1, err.Error())
		} else {
			res.checks = append(res.checks, "stream raizn WAReport categories equal device host bytes")
		}
		stats := vol.Stats()
		if stats.LogicalWriteBytes != userBytes {
			res.fail(1, fmt.Sprintf("raizn LogicalWriteBytes %d != benchmark user bytes %d", stats.LogicalWriteBytes, userBytes))
		} else {
			res.checks = append(res.checks, "stream raizn LogicalWriteBytes equals benchmark user bytes")
		}

		if rc.rec != nil {
			m := newLayerMap()
			ix := indexSpans(rc.rec)
			m["raizn.write_self_host_us"] = ix.selfMedianUS("raizn.write")
			m["raizn.read_self_host_us"] = ix.selfMedianUS("raizn.read")
			fillRaiznLayers(m, raiznInputs{
				roots: rc.rec.roots(), dev: dev, virt: res.virt, userBytes: res.writeBytes,
				wa: subWA(waBytes(vol), wa0), coalesced: stats.CoalescedSubWrites - st0.CoalescedSubWrites,
				relocations: stats.Relocations - st0.Relocations,
			})
			fillRuntimeLayers(m, ix, res)
			res.layer = m
		}
		clk2, clones = crashClone(devs)
	})
	if runErr != nil {
		return nil, runErr
	}
	vols, err := mountArrays(rc, res, clk2, [][]*zns.Device{clones})
	if err != nil {
		return nil, err
	}
	var lost int64
	clk2.Run(func() {
		vol := vols[0]
		buf := make([]byte, streamReadbackChunk*vol.SectorSize())
		for z := 0; z < streamPreloadZones+streamWriters; z++ {
			base := int64(z) * vol.ZoneSectors()
			for off := int64(0); off < written[z]; off += streamReadbackChunk {
				n := min(int64(streamReadbackChunk), written[z]-off)
				b := buf[:n*int64(vol.SectorSize())]
				if err := vol.Read(base+off, b); err != nil {
					lost += n
					continue
				}
				lost += st.bad(b, base+off)
			}
		}
	})
	var sectors int64
	for _, n := range written {
		sectors += n
	}
	res.attempted += sectors
	res.fail(lost, "stream sectors lost or wrong after crash-restart")
	if lost == 0 {
		res.checks = append(res.checks, "stream crash-restart read back every acknowledged sector")
	}
	return res, nil
}

// mountArrays mounts each crash-cloned array on clk, all at once, and
// sets the repetition's recovery time: simulated time from the first
// raizn.Mount call until every array serves.
func mountArrays(rc repConfig, res *repResult, clk *vclock.Clock, arrays [][]*zns.Device) ([]*raizn.Volume, error) {
	vols := make([]*raizn.Volume, len(arrays))
	errs := make([]error, len(arrays))
	clk.Run(func() {
		rc.rec.setOn(true)
		t0 := clk.Now()
		wg := clk.NewWaitGroup()
		for i, devs := range arrays {
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				sp := rc.rec.begin(clk, "raizn.mount", 0)
				vols[i], errs[i] = raizn.Mount(clk, devs, raizn.DefaultConfig())
				rc.rec.end(clk, sp, errs[i])
			})
		}
		wg.Wait()
		rc.rec.setOn(false)
		res.recoverT = clk.Now() - t0
		if res.layer != nil {
			res.layer["raizn.mount_ms"] = ms(res.recoverT)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("crash-restart mount of array %d: %w", i, err)
		}
	}
	return vols, nil
}
