package telemetry

import (
	"strconv"
	"strings"
	"sync/atomic"
)

// Sharded instruments spread one logical counter across per-worker
// cache-line-padded cells. A plain Counter is a single atomic word;
// when every packet of every worker increments it, the cores spend
// their time bouncing that cache line instead of serving queries. A
// sharded instrument gives each worker its own cell (padded so two
// cells never share a line) and only sums them on the slow,
// operator-facing scrape path.
//
// The per-cell pad is 128 bytes, two typical cache lines, to defeat
// the adjacent-line prefetcher pairing lines on x86.

const cellPad = 128

// CounterCell is one worker's slice of a ShardedCounter. Only its
// owning worker should write it; any goroutine may read it.
type CounterCell struct {
	v atomic.Uint64
	_ [cellPad - 8]byte
}

// Inc adds one.
func (c *CounterCell) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *CounterCell) Add(n uint64) { c.v.Add(n) }

// Value returns this cell's count.
func (c *CounterCell) Value() uint64 { return c.v.Load() }

// ShardedCounter is a monotonic counter family whose increments land
// on per-worker cells and whose exposed value is their sum.
type ShardedCounter struct {
	name, help string
	cells      []CounterCell
}

// NewShardedCounter returns a sharded counter with one cell per
// shard; shards < 1 is treated as 1.
func NewShardedCounter(name, help string, shards int) *ShardedCounter {
	if shards < 1 {
		shards = 1
	}
	return &ShardedCounter{name: name, help: help, cells: make([]CounterCell, shards)}
}

// Shard returns cell i (modulo the shard count), for the owning
// worker to cache and increment without indexing per packet.
func (c *ShardedCounter) Shard(i int) *CounterCell {
	return &c.cells[i%len(c.cells)]
}

// Shards returns the number of cells.
func (c *ShardedCounter) Shards() int { return len(c.cells) }

// Value returns the sum across all cells. Each cell is read with one
// atomic load, so the sum is a consistent-enough snapshot for metrics
// (exact once the writers have quiesced). A nil counter reads 0.
func (c *ShardedCounter) Value() uint64 {
	var total uint64
	if c != nil {
		for i := range c.cells {
			total += c.cells[i].v.Load()
		}
	}
	return total
}

// Values returns each cell's count, in shard order; nil for a nil
// counter.
func (c *ShardedCounter) Values() []uint64 {
	if c == nil {
		return nil
	}
	vals := make([]uint64, len(c.cells))
	for i := range c.cells {
		vals[i] = c.cells[i].v.Load()
	}
	return vals
}

// MetricName implements Collector.
func (c *ShardedCounter) MetricName() string { return c.name }

func (c *ShardedCounter) metricHelp() string { return c.help }
func (c *ShardedCounter) metricType() string { return "counter" }
func (c *ShardedCounter) writeSamples(b *strings.Builder) {
	b.WriteString(c.name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.Value(), 10))
	b.WriteByte('\n')
}
