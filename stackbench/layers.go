package main

import (
	"fmt"
	"sort"
	"time"

	"raizn/internal/obs"
)

// layerCatalog lists every per-layer metric the traced run reports, with
// its unit. A workload that does not load a layer reports that layer's
// counts and ratios as 0.
var layerCatalog = []struct{ name, unit, what string }{
	{"kvs.put_self_host_us", "us", "median host time inside kvs Put, minus its lfs.Device calls"},
	{"kvs.get_self_host_us", "us", "median host time inside kvs Get, minus its lfs.Device calls and their waits"},
	{"kvs.put_stall_frac", "ratio", "Puts that waited any simulated time"},
	{"kvs.flushes", "count", "memtable flushes in the measured phase and its drain"},
	{"kvs.compactions", "count", "compactions in the measured phase and its drain"},
	{"kvs.dev_reads_per_get", "count", "lfs.Device reads issued inside a Get, per Get"},
	{"kvs.compact_bytes_per_user_byte", "ratio", "compaction bytes per Put payload byte"},
	{"kvs.open_ms", "ms", "simulated kvs.Open after the crash"},
	{"lfs.dev_write_bytes_per_user_byte", "ratio", "lfs.Device write bytes per user byte"},
	{"lfs.dev_write_kib_mean", "KiB", "mean lfs.Device write size"},
	{"lfs.zone_resets", "count", "lfs.Device zone resets (segment cleaning and reuse)"},
	{"lfs.dev_write_p99_us", "us", "simulated lfs.Device write latency, p99"},
	{"lfs.dev_flushes", "count", "lfs.Device flushes"},
	{"lfs.dev_read_p50_us", "us", "simulated lfs.Device read latency, p50"},
	{"lfs.background_byte_frac", "ratio", "lfs.Device write bytes issued outside any Put/Get"},
	{"lfs.mount_ms", "ms", "simulated lfs.Mount after the crash"},
	{"volmgr.queue_delay_p50_us", "us", "median over tenants of TenantStats.QueueDelay p50"},
	{"volmgr.queue_delay_p99_us", "us", "max over tenants of TenantStats.QueueDelay p99"},
	{"volmgr.submit_self_host_us", "us", "median host time inside volmgr Volume Submit*"},
	{"volmgr.writes_per_array_write", "ratio", "volume writes per array write (coalescing)"},
	{"volmgr.shed_frac", "ratio", "requests shed by admission control"},
	{"volmgr.array_byte_skew", "ratio", "max/mean user bytes written per array"},
	{"raizn.write_self_host_us", "us", "median host time inside raizn SubmitWrite"},
	{"raizn.read_self_host_us", "us", "median host time inside raizn SubmitRead"},
	{"raizn.plan_us", "us", "mean simulated write plan phase (obs.Analyze)"},
	{"raizn.compute_us", "us", "mean simulated write compute phase (obs.Analyze)"},
	{"raizn.submit_us", "us", "mean simulated write submit phase (obs.Analyze)"},
	{"raizn.wait_us", "us", "mean simulated write device wait (obs.Analyze)"},
	{"raizn.pp_bytes_per_user_byte", "ratio", "partial-parity header+payload bytes per user byte (WAReport)"},
	{"raizn.parity_bytes_per_user_byte", "ratio", "full parity bytes per user byte (WAReport)"},
	{"raizn.md_bytes_per_user_byte", "ratio", "metadata bytes per user byte (WAReport)"},
	{"raizn.coalesced_sub_writes_per_write", "ratio", "device sub-IOs merged per raizn write"},
	{"raizn.relocations", "count", "relocated stripe-unit fragments"},
	{"raizn.mount_ms", "ms", "simulated raizn.Mount after the crash"},
	{"zns.write_kib_per_cmd", "KiB", "device host write bytes per write command"},
	{"zns.write_cmds_per_user_mib", "count", "device write commands per user MiB"},
	{"zns.busiest_dev_busy_frac", "ratio", "busiest device's media time over the simulated phase"},
	{"zns.dev_write_skew", "ratio", "max/mean host bytes written per device"},
	{"zns.flushes", "count", "device cache flushes"},
	{"zns.resets", "count", "device zone resets"},
	{"zns.queue_us_p99", "us", "simulated device write queueing, p99 (obs.Analyze)"},
	{"zns.media_us_p50", "us", "simulated device write media time, p50 (obs.Analyze)"},
	{"zns.program_bytes_per_host_byte", "ratio", "flash program bytes per device host byte"},
	{"runtime.gc_cpu_frac", "ratio", "/cpu/classes/gc/total over /cpu/classes/total"},
	{"runtime.unattributed_host_frac", "ratio", "wall time of the measured phase outside every span's own work"},
	{"trace.overhead_host_us_per_op", "us", "traced minus untraced host_us_per_op"},
}

func newLayerMap() map[string]float64 {
	m := make(map[string]float64, len(layerCatalog))
	for _, l := range layerCatalog {
		m[l.name] = 0
	}
	return m
}

// latencies returns the simulated latencies of the named spans, sorted.
func (ix *spanIndex) latencies(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ix.spans {
		if s.Name == name && s.WDone >= 0 {
			out = append(out, time.Duration(s.VEnd-s.VStart))
		}
	}
	sortDurations(out)
	return out
}

// fillKVLayers computes the kvs and lfs metrics of a kv-mixed repetition.
func fillKVLayers(m map[string]float64, ix *spanIndex, res *repResult, flushes, compactions, compactBytes int64) {
	m["kvs.put_self_host_us"] = ix.selfMedianUS("kvs.put")
	m["kvs.get_self_host_us"] = ix.selfMedianUS("kvs.get")
	var stalled int
	for _, d := range res.writeLat {
		if d > 0 {
			stalled++
		}
	}
	m["kvs.put_stall_frac"] = ratio(float64(stalled), float64(len(res.writeLat)))
	m["kvs.flushes"] = float64(flushes)
	m["kvs.compactions"] = float64(compactions)
	m["kvs.compact_bytes_per_user_byte"] = ratio(float64(compactBytes), float64(res.writeBytes))

	byID := make(map[uint64]*span, len(ix.spans))
	for _, s := range ix.spans {
		byID[s.ID] = s
	}
	var gets, getReads, writes, writeBytes, bgBytes, resets, flushCalls int64
	for _, s := range ix.spans {
		switch s.Name {
		case "kvs.get":
			gets++
		case "lfs.dev_read":
			if p := byID[s.Parent]; p != nil && p.Name == "kvs.get" {
				getReads++
			}
		case "lfs.dev_write":
			writes++
			writeBytes += s.Bytes
			if s.Parent == 0 {
				bgBytes += s.Bytes
			}
		case "lfs.dev_reset":
			resets++
		case "lfs.dev_flush":
			flushCalls++
		}
	}
	m["kvs.dev_reads_per_get"] = ratio(float64(getReads), float64(gets))
	m["lfs.dev_write_bytes_per_user_byte"] = ratio(float64(writeBytes), float64(res.writeBytes))
	m["lfs.dev_write_kib_mean"] = ratio(float64(writeBytes)/1024, float64(writes))
	m["lfs.zone_resets"] = float64(resets)
	m["lfs.dev_flushes"] = float64(flushCalls)
	m["lfs.dev_write_p99_us"] = percentileUS(ix.latencies("lfs.dev_write"), 99)
	m["lfs.dev_read_p50_us"] = percentileUS(ix.latencies("lfs.dev_read"), 50)
	m["lfs.background_byte_frac"] = ratio(float64(bgBytes), float64(writeBytes))
}

// raiznInputs are the raizn and zns measurements of one traced
// repetition, summed over its arrays.
type raiznInputs struct {
	roots       [][]*obs.Span    // per array: raizn tracer root spans of the measured phase
	dev         devCounters      // device counter deltas
	virt        time.Duration    // simulated length of the measured phase
	userBytes   int64            // user bytes written
	wa          map[string]int64 // WAReport category deltas
	coalesced   int64            // CoalescedSubWrites delta
	relocations int64            // Relocations delta
}

func subWA(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func addWA(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

func histUS(b *obs.Breakdown, name string, pct float64) float64 {
	h := b.Hist(name)
	if h == nil || h.Count() == 0 {
		return 0
	}
	if pct < 0 {
		return float64(h.Mean()) / 1e3
	}
	return float64(h.Percentile(pct)) / 1e3
}

// fillRaiznLayers computes the raizn and zns metrics. Phase splits and
// device queue/media times come from raizn's own tracer via obs.Analyze.
func fillRaiznLayers(m map[string]float64, in raiznInputs) {
	var all []*obs.Span
	for _, rs := range in.roots {
		all = append(all, rs...)
	}
	b := obs.Analyze(all)
	m["raizn.plan_us"] = histUS(b, "write/plan", -1)
	m["raizn.compute_us"] = histUS(b, "write/compute", -1)
	m["raizn.submit_us"] = histUS(b, "write/submit", -1)
	m["raizn.wait_us"] = histUS(b, "write/wait", -1)
	m["zns.queue_us_p99"] = histUS(b, "dev-write/queue", 99)
	m["zns.media_us_p50"] = histUS(b, "dev-write/media", 50)
	var writes int64
	if h := b.Hist("write/total"); h != nil {
		writes = int64(h.Count())
	}
	m["raizn.coalesced_sub_writes_per_write"] = ratio(float64(in.coalesced), float64(writes))

	u := float64(in.userBytes)
	m["raizn.pp_bytes_per_user_byte"] = ratio(float64(in.wa["pp-header"]+in.wa["pp-payload"]), u)
	m["raizn.parity_bytes_per_user_byte"] = ratio(float64(in.wa["parity"]), u)
	m["raizn.md_bytes_per_user_byte"] = ratio(float64(in.wa["metadata"]), u)
	m["raizn.relocations"] = float64(in.relocations)

	m["zns.write_kib_per_cmd"] = ratio(float64(in.dev.host)/1024, float64(in.dev.cmds))
	m["zns.write_cmds_per_user_mib"] = ratio(float64(in.dev.cmds), u/mib)
	m["zns.dev_write_skew"] = skew(in.dev.perDevHost)
	m["zns.flushes"] = float64(in.dev.flushes)
	m["zns.resets"] = float64(in.dev.resets)
	m["zns.program_bytes_per_host_byte"] = ratio(float64(in.dev.program), float64(in.dev.host))

	// Media busy time per device, from the device child spans' queue and
	// media marks, per array.
	var top time.Duration
	for _, rs := range in.roots {
		busy := make(map[int]time.Duration)
		var walk func(s *obs.Span)
		walk = func(s *obs.Span) {
			q, qok := s.MarkTime(obs.PhaseQueue)
			md, mok := s.MarkTime(obs.PhaseMedia)
			if s.Dev >= 0 && qok && mok {
				busy[s.Dev] += md - q
			}
			for _, c := range s.Children() {
				walk(c)
			}
		}
		for _, r := range rs {
			walk(r)
		}
		for _, d := range busy {
			top = max(top, d)
		}
	}
	m["zns.busiest_dev_busy_frac"] = ratio(float64(top), float64(in.virt))
}

// fillRuntimeLayers computes the Go runtime and vclock metrics.
func fillRuntimeLayers(m map[string]float64, ix *spanIndex, res *repResult) {
	m["runtime.gc_cpu_frac"] = ratio(res.rtEnd.gcCPU-res.rtStart.gcCPU, res.rtEnd.totalCPU-res.rtStart.totalCPU)
	m["runtime.unattributed_host_frac"] = ix.unattributedFrac()
}

// endToEnd reduces untraced repetitions to the end-to-end metrics: each
// is the median over repetitions of the repetition's own value.
//
// Latency is reported per repetition as the mean and the tail mean (the
// mean of the slowest 1%, at least one sample). In a simulator whose
// device model has fixed service times, most requests take exactly the
// same simulated time, so medians and p99s sit on model constants that
// no seed moves. The pooled p50 and p99 are printed alongside, with their
// sample counts.
func endToEnd(reps []*repResult) (map[string]metric, []string) {
	var wl, rl []time.Duration
	var wmib, rmib, wmean, wtail, rmean, rtail, waf, rec, host, allocs, mem, setup []float64
	for _, r := range reps {
		sortDurations(r.writeLat)
		sortDurations(r.readLat)
		wl = append(wl, r.writeLat...)
		rl = append(rl, r.readLat...)
		secs := r.virt.Seconds()
		wmib = append(wmib, ratio(float64(r.writeBytes)/mib, secs))
		rmib = append(rmib, ratio(float64(r.readBytes)/mib, secs))
		wmean = append(wmean, meanUS(r.writeLat))
		wtail = append(wtail, tailUS(r.writeLat))
		rmean = append(rmean, meanUS(r.readLat))
		rtail = append(rtail, tailUS(r.readLat))
		waf = append(waf, r.flashWAF)
		rec = append(rec, ms(r.recoverT))
		host = append(host, hostUSPerOp(r))
		allocs = append(allocs, ratio(float64(r.rtEnd.allocs-r.rtStart.allocs), float64(r.ops)))
		mem = append(mem, float64(r.rtEnd.memBytes)/mib)
		setup = append(setup, r.setupWall.Seconds())
	}
	sortDurations(wl)
	sortDurations(rl)
	n := len(reps)
	med := fmt.Sprintf("median of %d reps", n)
	lat := func(kind string, ds []time.Duration) string {
		return fmt.Sprintf("%s n=%d over %d reps: p50 %.3f us, p99 %.3f us", kind, len(ds), n, percentileUS(ds, 50), percentileUS(ds, 99))
	}
	info := []string{
		lat("write latency", wl), lat("read latency", rl),
		"host_us_per_op per rep: " + spread(host),
		"setup_s per rep: " + spread(setup),
	}
	return map[string]metric{
		"write_mib_s":    {median(wmib), "MiB/s", med + ", simulated"},
		"read_mib_s":     {median(rmib), "MiB/s", med + ", simulated"},
		"write_mean_us":  {median(wmean), "us", med + ", simulated"},
		"write_tail_us":  {median(wtail), "us", med + ", simulated, slowest 1% of each rep"},
		"read_mean_us":   {median(rmean), "us", med + ", simulated"},
		"read_tail_us":   {median(rtail), "us", med + ", simulated, slowest 1% of each rep"},
		"flash_waf":      {median(waf), "ratio", med},
		"recover_ms":     {median(rec), "ms", med + ", simulated"},
		"host_us_per_op": {median(host), "us", med + ", wall"},
		"allocs_per_op":  {median(allocs), "count", med},
		"mem_mib":        {median(mem), "MiB", med + ", mapped and not released at the end of the measured phase"},
		"setup_s":        {median(setup), "s", med + ", wall"},
	}, info
}

// hostUSPerOp is the wall time of the measured phase, in µs, per
// operation completed.
func hostUSPerOp(r *repResult) float64 {
	return ratio(float64(r.measWall)/1e3, float64(r.ops))
}

// spread summarizes per-repetition values as min / quartiles / max.
func spread(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1))] }
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", s[0], q(0.25), median(s), q(0.75), s[len(s)-1])
}

// perLayer reduces traced repetitions to the per-layer metrics (medians
// over repetitions) plus the tracing overhead against the untraced
// repetitions of the same run.
func perLayer(plain, traced []*repResult) map[string]metric {
	out := make(map[string]metric, len(layerCatalog))
	for _, l := range layerCatalog {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.layer[l.name])
		}
		out[l.name] = metric{median(xs), l.unit, l.what}
	}
	hostPer := func(reps []*repResult) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, hostUSPerOp(r))
		}
		return median(xs)
	}
	tp, up := hostPer(traced), hostPer(plain)
	out["trace.overhead_host_us_per_op"] = metric{tp - up, "us",
		fmt.Sprintf("traced %.3f us/op minus untraced %.3f us/op", tp, up)}
	return out
}
