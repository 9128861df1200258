package oltp

import (
	"testing"
	"time"

	"raizn/internal/fio"
	"raizn/internal/kvs"
	"raizn/internal/lfs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func newDB(t *testing.T, c *vclock.Clock) *kvs.DB {
	t.Helper()
	cfg := zns.DefaultConfig()
	cfg.NumZones = 32
	cfg.ZoneSize = 256
	cfg.ZoneCap = 256
	cfg.MaxOpenZones = 14
	cfg.MaxActiveZones = 32
	devs := make([]*zns.Device, 5)
	for i := range devs {
		devs[i] = zns.NewDevice(c, cfg)
	}
	v, err := raizn.Create(c, devs, raizn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := lfs.Format(c, fio.RaiznTarget{V: v})
	if err != nil {
		t.Fatal(err)
	}
	db, err := kvs.Open(c, fsys, kvs.Options{
		MemtableBytes:   32 << 10,
		BaseLevelBytes:  128 << 10,
		TargetFileBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func smallCfg() Config {
	return Config{Tables: 2, RowsPerTable: 100, RowBytes: 190}
}

func TestPrepareAndReadOnly(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		db := newDB(t, c)
		cfg := smallCfg()
		if err := Prepare(db, cfg); err != nil {
			t.Fatal(err)
		}
		res := Run(c, db, cfg, ReadOnly, 4, 200*time.Millisecond, 1)
		if res.Errors != 0 {
			t.Errorf("errors = %d", res.Errors)
		}
		if res.Transactions == 0 || res.TPS <= 0 {
			t.Errorf("no transactions completed: %+v", res)
		}
		if res.P95Latency < res.AvgLatency/2 {
			t.Errorf("suspicious latencies: %+v", res)
		}
		db.Close()
	})
}

func TestWriteOnlyAndReadWrite(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		db := newDB(t, c)
		cfg := smallCfg()
		if err := Prepare(db, cfg); err != nil {
			t.Fatal(err)
		}
		for _, w := range []Workload{WriteOnly, ReadWrite} {
			res := Run(c, db, cfg, w, 2, 100*time.Millisecond, 2)
			if res.Errors != 0 {
				t.Errorf("%v errors = %d", w, res.Errors)
			}
			if res.Transactions == 0 {
				t.Errorf("%v: no transactions", w)
			}
		}
		db.Close()
	})
}

func TestWorkloadNames(t *testing.T) {
	if ReadOnly.String() != "oltp_read_only" || WriteOnly.String() != "oltp_write_only" || ReadWrite.String() != "oltp_read_write" {
		t.Error("workload names wrong")
	}
}

// TestRunFailsFastOnClosedDB checks that a stack whose every transaction
// fails returns promptly with the errors counted, instead of spinning
// without advancing virtual time.
func TestRunFailsFastOnClosedDB(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		db := newDB(t, c)
		cfg := smallCfg()
		if err := Prepare(db, cfg); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, w := range []Workload{ReadOnly, WriteOnly, ReadWrite} {
			res := Run(c, db, cfg, w, 4, time.Second, 1)
			if res.Errors == 0 {
				t.Errorf("workload %v: Errors = 0 on a closed DB", w)
			}
			if res.Transactions != 0 {
				t.Errorf("workload %v: %d transactions succeeded on a closed DB", w, res.Transactions)
			}
		}
	})
}
