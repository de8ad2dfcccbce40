package telemetry

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestShardedCounterExactSum(t *testing.T) {
	const workers, perWorker = 8, 10000
	c := NewShardedCounter("test_sharded_total", "help", workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cell := c.Shard(id)
			for j := 0; j < perWorker; j++ {
				cell.Inc()
			}
		}(i)
	}
	wg.Wait()
	if got, want := c.Value(), uint64(workers*perWorker); got != want {
		t.Fatalf("Value() = %d, want %d", got, want)
	}
}

func TestShardedCounterShardModulo(t *testing.T) {
	c := NewShardedCounter("test_mod_total", "help", 4)
	if c.Shard(0) != c.Shard(4) {
		t.Fatal("Shard(0) and Shard(4) should be the same cell")
	}
	if c.Shard(1) == c.Shard(2) {
		t.Fatal("distinct shards should not alias")
	}
	c.Shard(2).Add(3)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value() = %d, want 3", got)
	}
}

func TestShardedCellsArePadded(t *testing.T) {
	// Each cell must occupy at least a cache line (we pad to two) so
	// two workers' cells never false-share.
	if sz := unsafe.Sizeof(CounterCell{}); sz < 64 || sz%64 != 0 {
		t.Fatalf("CounterCell is %d bytes; want a multiple of 64, at least 64", sz)
	}
	c := NewShardedCounter("test_pad_total", "help", 2)
	d := uintptr(unsafe.Pointer(c.Shard(1))) - uintptr(unsafe.Pointer(c.Shard(0)))
	if d < 64 {
		t.Fatalf("adjacent cells are %d bytes apart; want >= 64", d)
	}
}

func TestShardedExposition(t *testing.T) {
	reg := NewRegistry()
	c := NewShardedCounter("test_exp_total", "a sharded counter", 4)
	reg.MustRegister(c)
	c.Shard(0).Inc()
	c.Shard(3).Add(2)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_exp_total counter", "test_exp_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecInc1(t *testing.T) {
	v := NewCounterVec("test_vec_total", "help", "qtype")
	v.Inc1("A")
	v.Inc1("A")
	v.Inc("AAAA") // variadic and fast path must share children
	v.Inc1("AAAA")
	if got := v.Value("A"); got != 2 {
		t.Fatalf(`Value("A") = %d, want 2`, got)
	}
	if got := v.Value("AAAA"); got != 2 {
		t.Fatalf(`Value("AAAA") = %d, want 2`, got)
	}
	if got := v.Sum(); got != 4 {
		t.Fatalf("Sum() = %d, want 4", got)
	}
}

func TestCounterVecInc1NoAlloc(t *testing.T) {
	v := NewCounterVec("test_vec_alloc_total", "help", "qtype")
	v.Inc1("A") // create the child outside the measured loop
	allocs := testing.AllocsPerRun(1000, func() { v.Inc1("A") })
	if allocs != 0 {
		t.Fatalf("Inc1 allocates %.1f per call, want 0", allocs)
	}
}
