// Package oltp implements a sysbench-style OLTP workload driver over the
// kvs store, standing in for MySQL/MyRocks in the paper's §6.3 Figure 14
// experiments: N tables of M rows each, driven by concurrent client
// threads running oltp_read_only / oltp_write_only / oltp_read_write
// transaction mixes, reporting transactions per second, average latency,
// and 95th-percentile latency.
package oltp

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"raizn/internal/kvs"
	"raizn/internal/stats"
	"raizn/internal/vclock"
)

// Config describes the dataset (sysbench's --tables / --table-size).
type Config struct {
	Tables       int
	RowsPerTable int
	RowBytes     int // sysbench rows carry ~190 bytes of payload
}

// DefaultConfig mirrors the paper's 8 tables, scaled row count.
func DefaultConfig() Config {
	return Config{Tables: 8, RowsPerTable: 2000, RowBytes: 190}
}

// Workload selects the transaction mix.
type Workload int

const (
	ReadOnly Workload = iota
	WriteOnly
	ReadWrite
)

func (w Workload) String() string {
	switch w {
	case ReadOnly:
		return "oltp_read_only"
	case WriteOnly:
		return "oltp_write_only"
	case ReadWrite:
		return "oltp_read_write"
	default:
		return "?"
	}
}

// rowKey builds the primary key for (table, row).
func rowKey(table, row int) []byte {
	return []byte(fmt.Sprintf("tbl%02d:row%010d", table, row))
}

func rowValue(cfg Config, table, row int, version int) []byte {
	v := make([]byte, cfg.RowBytes)
	for i := range v {
		v[i] = byte(table) ^ byte(row>>(i%3)) ^ byte(version)
	}
	return v
}

// Prepare populates the dataset (sysbench "prepare" phase).
func Prepare(db *kvs.DB, cfg Config) error {
	for t := 0; t < cfg.Tables; t++ {
		for r := 0; r < cfg.RowsPerTable; r++ {
			if err := db.Put(rowKey(t, r), rowValue(cfg, t, r, 0)); err != nil {
				return err
			}
		}
	}
	return db.Flush()
}

// Result aggregates a run.
type Result struct {
	Transactions int64
	TPS          float64
	AvgLatency   time.Duration
	P95Latency   time.Duration
	Errors       int64
	FirstErr     error // the first failed transaction's error, nil if none
}

// Run drives the workload with the given number of client threads for
// the duration (virtual time) and returns sysbench-style metrics. A
// thread stops at its first failed transaction, counted in Errors. It
// must be called from a simulated goroutine.
func Run(clk *vclock.Clock, db *kvs.DB, cfg Config, w Workload, threads int, duration time.Duration, seed int64) Result {
	hist := stats.NewHistogram()
	var counter stats.Counter
	var errs int64
	var errOnce sync.Once
	var firstErr error

	start := clk.Now()
	deadline := start + duration
	wg := clk.NewWaitGroup()
	for th := 0; th < threads; th++ {
		th := th
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(th)*7919))
			for clk.Now() < deadline {
				t0 := clk.Now()
				err := runTransaction(db, cfg, w, rng)
				lat := clk.Now() - t0
				if err != nil {
					// An error ends the thread: a transaction that fails
					// without advancing virtual time would otherwise spin
					// here forever, never reaching the deadline.
					atomic.AddInt64(&errs, 1)
					errOnce.Do(func() { firstErr = err })
					return
				}
				hist.Record(lat)
				counter.Add(1)
			}
		})
	}
	wg.Wait()
	elapsed := clk.Now() - start

	_, txns := counter.Bytes(), counter.Ops()
	res := Result{
		Transactions: txns,
		TPS:          float64(txns) / elapsed.Seconds(),
		AvgLatency:   hist.Mean(),
		P95Latency:   hist.Percentile(95),
		Errors:       errs,
		FirstErr:     firstErr,
	}
	return res
}

// runTransaction executes one sysbench transaction: read-only runs 10
// point SELECTs and 4 range SELECTs of 20 rows; write-only runs 2
// UPDATEs, 1 DELETE and 1 INSERT (sysbench re-inserts the deleted row);
// read-write runs both halves.
func runTransaction(db *kvs.DB, cfg Config, w Workload, rng *rand.Rand) error {
	table := rng.Intn(cfg.Tables)
	if w == ReadOnly || w == ReadWrite {
		for i := 0; i < 10; i++ {
			row := rng.Intn(cfg.RowsPerTable)
			if _, err := db.Get(rowKey(table, row)); err != nil && err != kvs.ErrNotFound {
				return err
			}
		}
		for i := 0; i < 4; i++ {
			row := rng.Intn(cfg.RowsPerTable)
			if _, err := db.Scan(string(rowKey(table, row)), 20); err != nil {
				return err
			}
		}
	}
	if w == WriteOnly || w == ReadWrite {
		for i := 0; i < 2; i++ {
			row := rng.Intn(cfg.RowsPerTable)
			if err := db.Put(rowKey(table, row), rowValue(cfg, table, row, rng.Int())); err != nil {
				return err
			}
		}
		row := rng.Intn(cfg.RowsPerTable)
		if err := db.Delete(rowKey(table, row)); err != nil {
			return err
		}
		if err := db.Put(rowKey(table, row), rowValue(cfg, table, row, rng.Int())); err != nil {
			return err
		}
	}
	return nil
}
