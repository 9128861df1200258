package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/volmgr"
	"raizn/internal/zns"
)

// tenants: a volmgr.Manager over two raizn arrays serving one volume to
// eight tenants under an open loop. Each tenant sends Poisson arrivals at
// a fixed offered rate; 70% are sequential writes of 16-256 KiB into the
// tenant's own zones, the rest 16 KiB reads that favour the tenant's
// recent writes. Latency is timed from each request's due time.
const (
	tenDevZones = 20 // zones per device: 17 logical zones per array, 32 are used
	tenArrays   = 2
	tenTenants  = 8
	tenZones    = 4 // volume zones per tenant
	tenArrivals = 250
	// tenRatePerSec is each tenant's offered rate in arrivals per
	// simulated second. All eight together offer about 450 MiB/s of
	// writes, some 40% of the ~1 GiB/s at which the engine starts to
	// shed (measured once with this workload at 1000-32000 per tenant).
	tenRatePerSec   = 2000
	tenWriteShare   = 0.7
	tenReadSectors  = 4           // 16 KiB reads
	tenRecentShare  = 0.8         // reads that target the recent window
	tenRecentWindow = 256         // sectors (1 MiB) behind the acknowledged head
	tenPreload      = 1024        // sectors each tenant writes during set-up
	tenReadback     = 256         // sectors per crash-restart read
	tenVolume       = "tenants-0" // the served volume's name
)

// tenantWriteSectors are the write sizes (16-256 KiB). Each size is
// drawn with probability inversely proportional to it, so every size
// class carries the same share of the bytes.
var tenantWriteSectors = []int64{4, 8, 16, 32, 64}

func drawWriteSectors(r *rand.Rand) int64 {
	var inv float64
	for _, n := range tenantWriteSectors {
		inv += 1 / float64(n)
	}
	x := r.Float64() * inv
	for _, n := range tenantWriteSectors {
		if x -= 1 / float64(n); x < 0 {
			return n
		}
	}
	return tenantWriteSectors[len(tenantWriteSectors)-1]
}

// tenantLog is one tenant's position and outstanding writes. Positions
// count sectors along the tenant's own zones in order, so position p is
// volume zone zones[p/zoneSectors] at offset p%zoneSectors.
type tenantLog struct {
	mu    sync.Mutex
	next  int64   // position of the next write
	acked int64   // every write below this position is acknowledged
	ends  []int64 // end positions of outstanding writes, in order
	done  map[int64]bool
	zones []int
	zs    int64
}

func (t *tenantLog) lba(p int64) int64 { return int64(t.zones[p/t.zs])*t.zs + p%t.zs }

// complete marks the write ending at end acknowledged and advances the
// acknowledged prefix.
func (t *tenantLog) complete(end int64) {
	t.mu.Lock()
	t.done[end] = true
	for len(t.ends) > 0 && t.done[t.ends[0]] {
		t.acked = t.ends[0]
		delete(t.done, t.ends[0])
		t.ends = t.ends[1:]
	}
	t.mu.Unlock()
}

func runTenants(rc repConfig) (*repResult, error) {
	res := &repResult{}
	arrivals := rc.scaled(tenArrivals, 20)
	rng := rand.New(rand.NewSource(rc.seed))
	st := newStamper(rng.Int63(), 4096)
	seeds := make([]int64, tenTenants)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	var runErr error
	var clk2 *vclock.Clock
	var cloned [][]*zns.Device
	var extents []volmgr.ExtentDesc
	logs := make([]*tenantLog, tenTenants)
	w0 := time.Now()
	clk := vclock.New()
	clk.Run(func() {
		reg := obs.NewRegistry()
		mgr := volmgr.NewManager(clk, volmgr.Config{Registry: reg})
		var vols []*raizn.Volume
		var devs [][]*zns.Device
		var trs []*obs.Tracer
		for a := 0; a < tenArrays; a++ {
			tr := rc.rec.tracerFor(clk)
			v, d, err := newArray(clk, tenDevZones, tr)
			if err != nil {
				runErr = err
				return
			}
			if _, err := mgr.AddArray(fmt.Sprintf("a%d", a), v); err != nil {
				runErr = err
				return
			}
			vols, devs, trs = append(vols, v), append(devs, d), append(trs, tr)
		}
		spec := volmgr.VolumeSpec{Zones: tenTenants * tenZones}
		for t := 0; t < tenTenants; t++ {
			spec.Tenants = append(spec.Tenants, volmgr.TenantConfig{ID: fmt.Sprintf("t%d", t)})
		}
		vv, err := mgr.CreateVolume(tenVolume, spec)
		if err != nil {
			runErr = err
			return
		}
		defer func() {
			if err := mgr.Close(); err != nil && runErr == nil {
				runErr = fmt.Errorf("volmgr close: %w", err)
			}
		}()
		extents = vv.ExtentMap()
		zs := vv.ZoneSectors()
		arrays := make(map[string]*raizn.Volume)
		for _, a := range mgr.Arrays() {
			arrays[a.ID()] = a.Volume()
		}

		// Preload each tenant's first zone directly on its array, so the
		// engine's statistics cover only the measured phase.
		var userBytes int64
		for t := range logs {
			lg := &tenantLog{done: make(map[int64]bool), zs: zs}
			for z := 0; z < tenZones; z++ {
				lg.zones = append(lg.zones, t*tenZones+z)
			}
			buf := make([]byte, tenPreload*vv.SectorSize())
			st.fill(buf, lg.lba(0))
			e := extents[lg.zones[0]]
			if err := arrays[e.Array].Write(int64(e.Zone)*zs, buf, 0); err != nil {
				runErr = fmt.Errorf("preload: %w", err)
				return
			}
			lg.next, lg.acked = tenPreload, tenPreload
			userBytes += int64(len(buf))
			logs[t] = lg
		}
		res.setupWall = time.Since(w0)

		var allDevs []*zns.Device
		for _, d := range devs {
			allDevs = append(allDevs, d...)
		}
		dev0 := snapDevices(allDevs)
		var wa0 []map[string]int64
		var st0 []raizn.Stats
		for _, v := range vols {
			wa0, st0 = append(wa0, waBytes(v)), append(st0, v.Stats())
		}
		coalesced := reg.Counter(obs.LabeledName("volmgr_coalesced_requests_total", "volume", tenVolume))
		coalesced0 := coalesced.Load()

		wlog, rlog := &latLog{}, &latLog{}
		var late []time.Duration
		var mism, shed, writes, full int64
		var mu sync.Mutex
		pc := startPhase(clk, rc.rec, trs...)
		wg := clk.NewWaitGroup()
		for t := range logs {
			lg := logs[t]
			id := fmt.Sprintf("t%d", t)
			r := rand.New(rand.NewSource(seeds[t]))
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				// Completion is tracked by the Subscribe callbacks, which run
				// after a future's waiters wake.
				logged := clk.NewWaitGroup()
				due := clk.Now()
				for i := 0; i < arrivals; i++ {
					due += time.Duration(r.ExpFloat64() / tenRatePerSec * float64(time.Second))
					if now := clk.Now(); now < due {
						clk.Sleep(due - now)
					} else if now > due {
						mu.Lock()
						late = append(late, now-due)
						mu.Unlock()
					}
					if r.Float64() < tenWriteShare {
						n := drawWriteSectors(r)
						lg.mu.Lock()
						p := lg.next
						lg.mu.Unlock()
						if p >= int64(len(lg.zones))*zs {
							mu.Lock()
							full++
							mu.Unlock()
							break
						}
						if rest := zs - p%zs; n > rest {
							n = rest // writes never cross an extent
						}
						lba := lg.lba(p)
						buf := make([]byte, n*int64(vv.SectorSize()))
						st.fill(buf, lba)
						sp := rc.rec.begin(clk, "volmgr.submit_write", int64(len(buf)))
						fut, err := vv.SubmitWrite(id, lba, buf, 0)
						if err != nil {
							rc.rec.end(clk, sp, err)
							mu.Lock()
							if errors.Is(err, volmgr.ErrThrottled) {
								shed++
							}
							mu.Unlock()
							wlog.add(0, 0, err) // a shed write is retried by the next arrival
							continue
						}
						rc.rec.endAsync(clk, sp, fut)
						lg.mu.Lock()
						lg.next = p + n
						lg.ends = append(lg.ends, p+n)
						lg.mu.Unlock()
						mu.Lock()
						writes++
						mu.Unlock()
						d, end, size := due, p+n, int64(len(buf))
						logged.Add(1)
						fut.Subscribe(func(err error) {
							wlog.add(clk.Now()-d, size, err)
							if err == nil {
								lg.complete(end)
							}
							logged.Done()
						})
						continue
					}
					lg.mu.Lock()
					head := lg.acked
					lg.mu.Unlock()
					lo := int64(0)
					if r.Float64() < tenRecentShare {
						lo = max(0, head-tenRecentWindow)
					}
					p := lo + r.Int63n(head-tenReadSectors-lo+1)
					if p%zs+tenReadSectors > zs {
						p = (p/zs+1)*zs - tenReadSectors
					}
					lba := lg.lba(p)
					buf := make([]byte, tenReadSectors*vv.SectorSize())
					sp := rc.rec.begin(clk, "volmgr.submit_read", int64(len(buf)))
					fut, err := vv.SubmitRead(id, lba, buf)
					if err != nil {
						rc.rec.end(clk, sp, err)
						mu.Lock()
						if errors.Is(err, volmgr.ErrThrottled) {
							shed++
						}
						mu.Unlock()
						rlog.add(0, 0, err)
						continue
					}
					rc.rec.endAsync(clk, sp, fut)
					d := due
					logged.Add(1)
					fut.Subscribe(func(err error) {
						rlog.add(clk.Now()-d, int64(len(buf)), err)
						if err == nil {
							if bad := st.bad(buf, lba); bad != 0 {
								mu.Lock()
								mism += bad
								mu.Unlock()
							}
						}
						logged.Done()
					})
				}
				logged.Wait()
			})
		}
		wg.Wait()
		pc.stop(res, trs...)

		res.writeLat, res.readLat = wlog.lat, rlog.lat
		res.writeBytes, res.readBytes = wlog.bytes, rlog.bytes
		res.ops = int64(len(wlog.lat) + len(rlog.lat))
		res.attempted += int64(tenTenants * arrivals)
		res.fail(wlog.errs+rlog.errs-shed, "volmgr write/read errors")
		res.fail(shed, "requests shed by volmgr admission control")
		res.fail(mism, "tenant read sectors with a wrong stamp")
		res.fail(full, "tenants that filled their zones before their last arrival")
		if len(late) > 0 {
			res.checks = append(res.checks, fmt.Sprintf("tenants generator ran late %d times, worst %v", len(late), maxDur(late)))
		}
		userBytes += wlog.bytes

		// Flush policy: one volmgr Volume.Flush after the run.
		rc.rec.setOn(true)
		sp := rc.rec.begin(clk, "volmgr.flush", 0)
		err = vv.Flush()
		rc.rec.end(clk, sp, err)
		rc.rec.setOn(false)
		if err != nil {
			runErr = fmt.Errorf("volmgr flush: %w", err)
			return
		}
		dev := snapDevices(allDevs).sub(dev0)
		res.flashWAF = ratio(float64(dev.program), float64(res.writeBytes))
		var logical int64
		for i, v := range vols {
			if err := checkWAClosure(v); err != nil {
				res.fail(1, fmt.Sprintf("array %d: %v", i, err))
			}
			logical += v.Stats().LogicalWriteBytes
		}
		res.checks = append(res.checks, "tenants WAReport closure checked on every array")
		if logical != userBytes {
			res.fail(1, fmt.Sprintf("raizn LogicalWriteBytes %d != benchmark user bytes %d", logical, userBytes))
		}

		if rc.rec != nil {
			m := newLayerMap()
			ix := indexSpans(rc.rec)
			fillTenantLayers(m, ix, vv, vols, st0, coalesced.Load()-coalesced0, writes)
			in := raiznInputs{roots: rc.rec.roots(), dev: dev, virt: res.virt, userBytes: res.writeBytes, wa: map[string]int64{}}
			for i, v := range vols {
				s := v.Stats()
				in.wa = addWA(in.wa, subWA(waBytes(v), wa0[i]))
				in.coalesced += s.CoalescedSubWrites - st0[i].CoalescedSubWrites
				in.relocations += s.Relocations - st0[i].Relocations
			}
			fillRaiznLayers(m, in)
			fillRuntimeLayers(m, ix, res)
			res.layer = m
		}
		clk2 = vclock.New()
		for _, d := range devs {
			c := make([]*zns.Device, len(d))
			for i, x := range d {
				c[i] = x.CrashClone(clk2, nil, nil)
			}
			cloned = append(cloned, c)
		}
	})
	if runErr != nil {
		return nil, runErr
	}

	vols, err := mountArrays(rc, res, clk2, cloned)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*raizn.Volume)
	for i, v := range vols {
		byID[fmt.Sprintf("a%d", i)] = v
	}
	var lost, sectors int64
	clk2.Run(func() {
		ss := int64(vols[0].SectorSize())
		buf := make([]byte, tenReadback*ss)
		for _, lg := range logs {
			for p := int64(0); p < lg.acked; {
				n := min(tenReadback, lg.acked-p, lg.zs-p%lg.zs)
				e := extents[lg.zones[p/lg.zs]]
				b := buf[:n*ss]
				if err := byID[e.Array].Read(int64(e.Zone)*lg.zs+p%lg.zs, b); err != nil {
					lost += n
				} else {
					lost += st.bad(b, lg.lba(p))
				}
				sectors += n
				p += n
			}
		}
	})
	res.attempted += sectors
	res.fail(lost, "tenant sectors lost or wrong after crash-restart")
	if lost == 0 {
		res.checks = append(res.checks, "tenants crash-restart read back every acknowledged sector")
	}
	return res, nil
}

// fillTenantLayers computes the volmgr metrics.
func fillTenantLayers(m map[string]float64, ix *spanIndex, vv *volmgr.Volume, vols []*raizn.Volume, st0 []raizn.Stats, coalesced, writes int64) {
	var p50s []float64
	var p99, accepted, shed float64
	for _, ts := range vv.TenantStats() {
		if ts.QueueDelay.Count() > 0 {
			p50s = append(p50s, float64(ts.QueueDelay.Percentile(50))/1e3)
			p99 = max(p99, float64(ts.QueueDelay.Percentile(99))/1e3)
		}
		accepted += float64(ts.Accepted)
		shed += float64(ts.Shed)
	}
	m["volmgr.queue_delay_p50_us"] = median(p50s)
	m["volmgr.queue_delay_p99_us"] = p99
	m["volmgr.submit_self_host_us"] = ix.selfMedianUS("volmgr.submit_write", "volmgr.submit_read")
	m["volmgr.writes_per_array_write"] = ratio(float64(writes), float64(writes-coalesced))
	m["volmgr.shed_frac"] = ratio(shed, accepted+shed)
	var per []int64
	for i, v := range vols {
		per = append(per, v.Stats().LogicalWriteBytes-st0[i].LogicalWriteBytes)
	}
	m["volmgr.array_byte_skew"] = skew(per)
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}
