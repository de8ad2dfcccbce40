package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	if err := run(io.Discard, 1, 10, 30, "4g", 2, "availability", false, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllPoliciesAndAirs(t *testing.T) {
	for _, policy := range []string{"availability", "rr", "load"} {
		if err := run(io.Discard, 2, 5, 10, "5g", 3, policy, true, false); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
	if err := run(io.Discard, 2, 5, 10, "4g", 1, "bogus", false, false); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestSeedsComplete: a session at the default size completes on every
// seed. One datagram the air interface loses on a content fetch must
// cost a retry, not the session.
func TestSeedsComplete(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		if err := run(io.Discard, seed, 20, 100, "4g", 2, "availability", false, false); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestMetricsGolden pins `meccdnsim -metrics` at its defaults: the
// session summary and every Prometheus family the simulated site
// exports, byte for byte. Deleting a duplicate metric family (ROADMAP
// item 13) re-captures it, and the diff must be that family only.
func TestMetricsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/seed1_metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, 1, 20, 100, "4g", 2, "availability", false, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/seed1_metrics.golden:\n%s", firstDiff(got.Bytes(), want))
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
