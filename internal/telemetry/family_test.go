package telemetry

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func exposition(t *testing.T, cs ...Collector) string {
	t.Helper()
	reg := NewRegistry()
	reg.MustRegister(cs...)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShardedCounterExactSum: parallel writers, each on its own cell
// and all on a shared one, lose no increment; run with -race.
func TestShardedCounterExactSum(t *testing.T) {
	const workers, perWorker = 8, 10000
	f := NewCounterCells("test_cells_total", "h", workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				f.Inc(w)
				f.Add(workers, 2)
			}
		}(w)
	}
	wg.Wait()
	if got, want := f.Sum(), uint64(3*workers*perWorker); got != want {
		t.Fatalf("Sum() = %d, want %d", got, want)
	}
	vals := f.Values()
	for w := 0; w < workers; w++ {
		if vals[w] != perWorker {
			t.Errorf("cell %d = %d, want %d", w, vals[w], perWorker)
		}
	}
	if vals[workers] != 2*workers*perWorker {
		t.Errorf("shared cell = %d, want %d", vals[workers], 2*workers*perWorker)
	}
}

// TestCounterVecValueSumSnapshot: a labelled counter family reads back
// its sum and every cell in index order.
func TestCounterVecValueSumSnapshot(t *testing.T) {
	f := NewCounters("vec_total", "h", "a", "x", "y", "z")
	f.Add(0, 5)
	f.Inc(1)
	if f.Sum() != 6 {
		t.Errorf("sum = %d", f.Sum())
	}
	if snap := f.Values(); !slices.Equal(snap, []uint64{5, 1, 0}) {
		t.Errorf("Values() = %v, want [5 1 0]", snap)
	}
}

// TestGaugeVecSetAddSnapshot: a gauge family moves up and down, reads
// back every value, and exposes every value, zero included.
func TestGaugeVecSetAddSnapshot(t *testing.T) {
	g := NewGauges("gvec", "h", "state", "probing", "healthy", "down")
	for range 5 {
		g.Inc(1)
	}
	g.Inc(2)
	g.Dec(2)
	if snap := g.Values(); !slices.Equal(snap, []uint64{0, 5, 0}) {
		t.Errorf("Values() = %v, want [0 5 0]", snap)
	}
	want := `# HELP gvec h
# TYPE gvec gauge
gvec{state="down"} 0
gvec{state="healthy"} 5
gvec{state="probing"} 0
`
	if got := exposition(t, g); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestShardedExposition: an unlabelled family exposes one series, the
// sum of its cells.
func TestShardedExposition(t *testing.T) {
	f := NewCounterCells("test_exp_total", "a sharded counter", 4)
	f.Inc(0)
	f.Add(3, 2)
	want := `# HELP test_exp_total a sharded counter
# TYPE test_exp_total counter
test_exp_total 3
`
	if got := exposition(t, f); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestFamilyCellsArePadded(t *testing.T) {
	if sz := unsafe.Sizeof(cell{}); sz < 64 || sz%64 != 0 {
		t.Fatalf("a cell is %d bytes; want a multiple of 64, at least 64", sz)
	}
	f := NewCounters("test_pad_total", "h", "l", "a", "b")
	if d := uintptr(unsafe.Pointer(&f.cells[1])) - uintptr(unsafe.Pointer(&f.cells[0])); d < 64 {
		t.Fatalf("adjacent cells are %d bytes apart; want >= 64", d)
	}
}

func TestFamilyIncNoAlloc(t *testing.T) {
	f := NewCounters("test_alloc_total", "h", "qtype", "A", "AAAA")
	if allocs := testing.AllocsPerRun(1000, func() { f.Inc(1) }); allocs != 0 {
		t.Fatalf("Inc allocates %.1f per call, want 0", allocs)
	}
}

// TestFamilyExposition: a counter family prints only the values it has
// counted, sorted by value whatever the index order.
func TestFamilyExposition(t *testing.T) {
	ctr := NewCounters("test_ctr_total", "h", "result", "ok", "error", "busy")
	ctr.Inc(0)
	ctr.Add(2, 3)
	want := `# HELP test_ctr_total h
# TYPE test_ctr_total counter
test_ctr_total{result="busy"} 3
test_ctr_total{result="ok"} 1
`
	if got := exposition(t, ctr); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
