package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"
)

func TestRunTables(t *testing.T) {
	if err := run(io.Discard, 1, 0, "4g", false, "", false, 1, 5, 0, 0, "text"); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, 2, 0, "4g", false, "", false, 1, 5, 0, 0, "text"); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigures(t *testing.T) {
	for _, fig := range []int{2, 3, 5} {
		if err := run(io.Discard, 0, fig, "4g", false, "", false, 1, 5, 0, 0, "text"); err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
	}
	if err := run(io.Discard, 0, 5, "5g", false, "", false, 1, 5, 0, 0, "text"); err != nil {
		t.Fatalf("fig 5 5g: %v", err)
	}
}

func TestRunECSAndExtensions(t *testing.T) {
	if err := run(io.Discard, 0, 0, "4g", true, "", false, 1, 5, 0, 0, "text"); err != nil {
		t.Fatal(err)
	}
	for _, x := range []string{"fallback", "disagg", "ipreuse", "loadshed"} {
		if err := run(io.Discard, 0, 0, "4g", false, x, false, 1, 5, 0, 0, "text"); err != nil {
			t.Fatalf("%s: %v", x, err)
		}
	}
	if err := run(io.Discard, 0, 0, "4g", false, "bogus", false, 1, 5, 0, 0, "text"); err == nil {
		t.Error("unknown extension accepted")
	}
}

func TestRunLoadBalance(t *testing.T) {
	// Small-N X8: the -ues / -requests flags flow into the config.
	if err := run(io.Discard, 0, 0, "4g", false, "loadbalance", false, 1, 5, 8_000, 400, "text"); err != nil {
		t.Fatalf("loadbalance: %v", err)
	}
}

func TestRunCSVFormat(t *testing.T) {
	for _, fig := range []int{2, 3, 5} {
		if err := run(io.Discard, 0, fig, "4g", false, "", false, 1, 5, 0, 0, "csv"); err != nil {
			t.Fatalf("fig %d csv: %v", fig, err)
		}
	}
	if err := run(io.Discard, 0, 0, "4g", true, "", false, 1, 5, 0, 0, "csv"); err != nil {
		t.Fatalf("ecs csv: %v", err)
	}
}

// TestGoldenRender pins the deterministic experiments: the whole
// reduced-size -all render must stay byte-identical to the capture in
// testdata (taken with `experiments -all -seed 42 -runs 5 -ues 20000
// -requests 400`). The simulator answers every query through Resolve,
// so this is the proof that a serve-path change alters no result.
func TestGoldenRender(t *testing.T) {
	want, err := os.ReadFile("testdata/all_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, 0, 0, "4g", false, "", true, 42, 5, 20_000, 400, "text"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("render differs from testdata/all_seed42.golden:\n%s", firstDiff(got.Bytes(), want))
	}
}

// firstDiff reports the first line where got and want part ways.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}
