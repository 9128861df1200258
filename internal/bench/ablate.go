package bench

import (
	"fmt"
	"io"
	"time"

	"raizn/internal/blockdev"
	"raizn/internal/fio"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func init() {
	register(Experiment{
		Name:  "ablate-pp",
		Title: "Ablation: partial-parity mechanisms (§5.1 log vs §5.4 inline-meta vs §5.4 ZRWA)",
		Run:   runAblatePP,
	})
	register(Experiment{
		Name:  "ablate-wal",
		Title: "Ablation: zone-reset write-ahead log cost (§5.2)",
		Run:   runAblateWAL,
	})
}

// extConfig enables the optional device features the §5.4 modes need.
func extConfig(sc scale) zns.Config {
	cfg := znsConfig(sc, true)
	cfg.ZRWASectors = 32
	cfg.MetaBytes = 64
	return cfg
}

func newModeVolume(clk *vclock.Clock, sc scale, mode raizn.Parity) (*raizn.Volume, []*zns.Device) {
	devs := make([]*zns.Device, sc.numDevices)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, extConfig(sc))
	}
	cfg := raizn.DefaultConfig()
	cfg.Parity = mode
	v, err := raizn.Create(clk, devs, cfg)
	if err != nil {
		panic(err)
	}
	return v, devs
}

// runAblatePP measures the three partial-parity mechanisms on the
// small-sequential-write workload where the paper identifies the parity
// log header as the dominant overhead (Fig. 9's 4 KiB write gap).
func runAblatePP(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	jobs, qd := 8, 64
	if quick {
		jobs, qd = 4, 16
	}
	modes := []struct {
		name string
		mode raizn.Parity
	}{
		{"pp-log (paper)", raizn.ParityLog},
		{"inline-meta", raizn.ParityInlineMeta},
		{"zrwa", raizn.ParityZRWA},
	}
	for _, bs := range []int64{1, 4, 16} { // 4K, 16K, 64K
		fmt.Fprintf(w, "\n-- block size %s --\n", kib(bs))
		t := newTable(w, "mode", "write MiB/s", "device WA", "p99.9")
		for _, m := range modes {
			clk := vclock.New()
			var tput, wa float64
			var p999 time.Duration
			clk.Run(func() {
				v, devs := newModeVolume(clk, sc, m.mode)
				tgt := fio.RaiznTarget{V: v}
				size := v.NumSectors()
				per := size / int64(jobs) / 16 * 16
				var js []fio.Job
				for j := 0; j < jobs; j++ {
					js = append(js, fio.Job{Pattern: fio.SeqWrite, BlockSectors: bs, QueueDepth: qd,
						Offset: int64(j) * per, Size: per / bs * bs, Seed: int64(j)})
				}
				res := fio.Run(clk, tgt, js, fio.Options{})
				tput = res.Throughput
				p999 = res.Hist.Percentile(99.9)
				var devW int64
				for _, d := range devs {
					dw, _, _, _ := d.Counters()
					devW += dw
				}
				// Device write amplification relative to user data plus
				// the unavoidable RAID parity (user * n/d).
				user := float64(res.Bytes)
				wa = float64(devW) / user
			})
			t.row(m.name, f1(tput), f2(wa), p999.String())
		}
	}
	fmt.Fprintln(w, "\nideal WA is n/d = 1.25 (data + rotating parity).")
	fmt.Fprintln(w, "pp-log pays a 4 KiB header per sub-stripe write; inline-meta removes the header;")
	fmt.Fprintln(w, "zrwa removes the log but rewrites the parity prefix in place on every append.")
	return nil
}

// runAblateWAL measures what the §5.2 zone-reset write-ahead log costs
// per reset ("this introduces additional latency to zone resets").
func runAblateWAL(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	resets := 20
	if quick {
		resets = 6
	}
	measure := func(disable bool) time.Duration {
		var per time.Duration
		clk := vclock.New()
		clk.Run(func() {
			devs := make([]*zns.Device, sc.numDevices)
			for i := range devs {
				devs[i] = zns.NewDevice(clk, znsConfig(sc, true))
			}
			cfg := raizn.DefaultConfig()
			cfg.DisableResetWAL = disable
			v, err := raizn.Create(clk, devs, cfg)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 64<<10)
			var total time.Duration
			for i := 0; i < resets; i++ {
				if err := v.Write(0, buf, 0); err != nil {
					panic(err)
				}
				t0 := clk.Now()
				if err := v.ResetZone(0); err != nil {
					panic(err)
				}
				total += clk.Now() - t0
			}
			per = total / time.Duration(resets)
		})
		return per
	}
	withWAL := measure(false)
	without := measure(true)
	t := newTable(w, "config", "reset latency")
	t.row("with reset WAL (paper)", withWAL.String())
	t.row("without WAL (unsafe)", without.String())
	fmt.Fprintf(w, "\nWAL adds %v per reset (two FUA metadata appends + counter persists);\n", withWAL-without)
	fmt.Fprintln(w, "the paper accepts this because workloads do not write immediately after resetting (§5.2).")
	return nil
}

func init() {
	register(Experiment{
		Name:  "ablate-journal",
		Title: "Ablation: mdraid write-journal cost vs RAIZN's built-in write-hole closure (§2.2/§5.4)",
		Run:   runAblateJournal,
	})
}

// runAblateJournal quantifies why the paper ran mdraid without a journal
// ("ensuring maximum performance"): with the journal attached every
// stripe write is first made durable in the log, doubling write traffic;
// RAIZN closes the same write hole with partial-parity logs whose cost
// was already paid in Figure 9.
func runAblateJournal(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	jobs, qd := 8, 64
	if quick {
		jobs, qd = 4, 16
	}
	t := newTable(w, "config", "seqwrite MiB/s", "randwrite 16K MiB/s")
	for _, mode := range []string{"mdraid", "mdraid+journal", "raizn"} {
		clk := vclock.New()
		var seq, rnd float64
		clk.Run(func() {
			var tgt fio.Target
			switch mode {
			case "raizn":
				v, _, err := newRaizn(clk, sc, true, 16)
				if err != nil {
					panic(err)
				}
				tgt = fio.RaiznTarget{V: v}
			default:
				v, _, err := newMdraid(clk, sc, true, 16)
				if err != nil {
					panic(err)
				}
				if mode == "mdraid+journal" {
					v.AttachJournal(blockdevNew(clk, sc))
				}
				tgt = fio.MdraidTarget{V: v}
			}
			size := tgt.NumSectors()
			per := size / int64(jobs) / 16 * 16
			var js []fio.Job
			for j := 0; j < jobs; j++ {
				js = append(js, fio.Job{Pattern: fio.SeqWrite, BlockSectors: 32, QueueDepth: qd,
					Offset: int64(j) * per, Size: per, Seed: int64(j)})
			}
			seq = fio.Run(clk, tgt, js, fio.Options{}).Throughput

			if mode != "raizn" { // random overwrites need a block volume
				rnd = fio.Run(clk, tgt, []fio.Job{{Pattern: fio.RandWrite, BlockSectors: 4,
					QueueDepth: qd, TotalBytes: size * 4096 / 8, Seed: 7}}, fio.Options{}).Throughput
			}
		})
		rndCell := f1(rnd)
		if mode == "raizn" {
			rndCell = "n/a (zoned)"
		}
		t.row(mode, f1(seq), rndCell)
	}
	fmt.Fprintln(w, "\nthe journal absorbs the full array write stream on one device before the array sees it;")
	fmt.Fprintln(w, "RAIZN provides the equivalent guarantee (single-stripe write atomicity, §5.2)")
	fmt.Fprintln(w, "with the partial-parity log already counted in its Figure 9 numbers.")
	return nil
}

// blockdevNew builds the journal device. A journal sees pure sequential
// overwrite, for which real drives erase across parallel dies without
// stalling the write path; the simulator's single write pipe charges
// erases serially, so the journal device gets a short erase latency to
// approximate that parallelism.
func blockdevNew(clk *vclock.Clock, sc scale) *blockdev.Device {
	cfg := blockConfig(sc, true)
	cfg.EraseLatency = 300 * time.Microsecond
	return blockdev.NewDevice(clk, cfg)
}
