// Command benchmark is the repository's benchmark: it assembles, in
// one process, the site a deployment runs (the L-DNS chain cmd/dnsd
// wires, a collocated C-DNS and a provider resolver), drives it over
// loopback UDP with a closed-loop verifying client, and prints every
// end-to-end and per-layer metric by name and unit. README.md has the
// workloads, the metrics and how to read the trace.
//
// Usage, from this directory:
//
//	go run . -seed 1                      all four workloads, both runs
//	go run . -workload hit-ecs -seed 7    one workload
//	go run . -trace-only                  per-layer metrics only
//	go run . -selfcheck                   two sets, compared
//
// The driver's contract run is
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// which prints the result as one JSON object on the last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds (README, "Run
// length").
const defaultSeconds = 20

// setupsPerRun is how often a run sets the site up; setup_s is the
// median, so one slow set-up does not decide it.
const setupsPerRun = 3

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run: hit-plain, hit-ecs, route-miss or zipf-mix (default: all four)")
		seed         = flag.Int64("seed", 1, "seed the query streams are generated from")
		seconds      = flag.Int("seconds", defaultSeconds, "length of the measured phase, in one-second slices")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics from the traced run only (default: both)")
		traceOnly    = flag.Bool("trace-only", false, "same as -trace 1")
		selfcheck    = flag.Bool("selfcheck", false, "run the set twice and fail if any end-to-end metric differs by more than its bound")
		outDir       = flag.String("out", "out", "directory for trace-<workload>.json and results.json")
	)
	flag.Parse()
	if err := run(*workloadFlag, *seed, *seconds, *trace, *traceOnly, *selfcheck, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, traceOnly, selfcheck bool, outDir string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if traceOnly {
		trace = 1
	}
	if trace < -1 || trace > 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	selected := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	host := hostInfo()
	fmt.Println(host.String())

	if selfcheck {
		return selfCheck(selected, seed, seconds)
	}

	var results []*result
	wrong := false
	for _, w := range selected {
		// The end-to-end run sets up several times for setup_s; the
		// traced run alone does not report it and sets up once.
		setups := setupsPerRun
		if trace == 1 {
			setups = 1
		}
		res, err := runWorkload(w, seed, seconds, setups, trace != 0, outDir)
		if err != nil {
			return err
		}
		results = append(results, res)
		printResult(res, trace)
		wrong = wrong || res.tally.wrong > 0
	}
	if err := writeResults(outDir, host, results); err != nil {
		return err
	}
	if len(results) == 1 && trace >= 0 {
		// The contract's result line, last on standard output.
		line, err := contractLine(results[0], trace)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if wrong {
		return fmt.Errorf("a reply failed verification")
	}
	return nil
}

func printResult(r *result, trace int) {
	t := &r.tally
	fmt.Printf("\n== %s  seed %d  %d x 1 s slices, closed loop, 1 flow, %d outstanding ==\n",
		r.workload, r.seed, r.seconds, window)
	fmt.Printf("   sent %d  answered %d  timeouts %d  wrong %d  stray %d  fully decoded %d\n",
		t.sent, t.answered, t.timeouts, t.wrong, t.stray, t.decoded)
	if t.firstBad != "" {
		fmt.Printf("   first wrong answer: %s\n", t.firstBad)
	}
	if trace != 1 {
		fmt.Printf("   qps per slice: min %.0f  median %.0f  mean %.0f  stddev %.0f   %.0f\n",
			r.slices.min, r.slices.median, r.slices.mean, r.slices.stddev, r.perSlice.qps)
		fmt.Printf("   rtt samples %d (about %d per slice percentile)   set-ups %.3f s\n",
			len(t.rtts), len(t.rtts)/r.seconds, r.setups)
		for _, m := range endToEnd {
			fmt.Printf("   %-34s %14.4f %s\n", m.name, r.e2e[m.name], m.unit)
		}
	}
	if r.layers != nil {
		for _, m := range perLayer {
			fmt.Printf("   %-34s %14.4f %s\n", m.name, r.layers[m.name], m.unit)
		}
	}
}

// contractLine renders the one-line result the driver reads: the
// end-to-end metrics with -trace 0, the per-layer ones with -trace 1.
func contractLine(r *result, trace int) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, from := endToEnd, r.e2e
	if trace == 1 {
		defs, from = perLayer, r.layers
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		if !m.contract() {
			continue
		}
		v := from[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, v)
		}
		metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.tally.wrong == 0, r.tally.sent, r.failed(), metrics})
	return string(line), err
}

// selfCheck is the benchmark's proof of its own repeatability: the
// same code measured twice must agree with itself within the bounds
// it holds other changes to.
func selfCheck(selected []workload, seed int64, seconds int) error {
	var sets [2][]*result
	for i := range sets {
		for _, w := range selected {
			res, err := runWorkload(w, seed, seconds, setupsPerRun, false, "")
			if err != nil {
				return err
			}
			if res.tally.wrong > 0 {
				return fmt.Errorf("%s: %d replies failed verification (first: %s)", w.name, res.tally.wrong, res.tally.firstBad)
			}
			sets[i] = append(sets[i], res)
		}
	}
	var failures []string
	for i, w := range selected {
		fmt.Printf("\n== %s: set 1 vs set 2 ==\n", w.name)
		for _, m := range endToEnd {
			a, b := sets[0][i].e2e[m.name], sets[1][i].e2e[m.name]
			tol := m.bound*math.Min(a, b) + m.abs
			verdict := "ok"
			if math.Abs(a-b) > tol {
				verdict = "DIFFERS"
				failures = append(failures, w.name+"/"+m.name)
			}
			fmt.Printf("   %-20s %14.4f %14.4f %-6s  tolerance %.4f  %s\n", m.name, a, b, m.unit, tol, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck: not repeatable within bounds: %s", strings.Join(failures, ", "))
	}
	fmt.Println("\nselfcheck: every end-to-end metric of every workload agrees within its bound")
	return nil
}

// host is what an archived result must carry to be comparable later.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Link       string `json:"link"`
}

func (h host) String() string {
	return fmt.Sprintf("host: GOMAXPROCS %d, nproc %d, %s, %s, commit %s; %s",
		h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion, h.Commit, h.Link)
}

func hostInfo() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Link:       "loopback, no real link",
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

// commit reads the checked-out commit from the enclosing repository's
// .git, without running git; the driver's checkout has none.
func commit() string {
	read := func(p string) string {
		data, err := os.ReadFile(filepath.Join("..", ".git", p))
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(data))
	}
	head := read("HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = read(ref)
	}
	if head == "" {
		return "unknown"
	}
	return head
}

// writeResults archives the run with its variance and host metadata.
func writeResults(dir string, h host, results []*result) error {
	type archived struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Seconds  int                  `json:"seconds"`
		Sent     uint64               `json:"sent"`
		Answered uint64               `json:"answered"`
		Timeouts uint64               `json:"timeouts"`
		Wrong    uint64               `json:"wrong"`
		Samples  int                  `json:"rtt_samples"`
		SliceQPS map[string]float64   `json:"slice_qps"`
		PerSlice map[string][]float64 `json:"per_slice"`
		Setups   []float64            `json:"setups_s"`
		EndToEnd map[string]float64   `json:"end_to_end"`
		PerLayer map[string]float64   `json:"per_layer,omitempty"`
	}
	out := struct {
		Host    host       `json:"host"`
		Load    string     `json:"load"`
		Results []archived `json:"results"`
	}{Host: h, Load: fmt.Sprintf("closed loop, 1 flow, %d outstanding, %v timeout", window, queryTimeout)}
	for _, r := range results {
		out.Results = append(out.Results, archived{
			Workload: r.workload, Seed: r.seed, Seconds: r.seconds,
			Sent: r.tally.sent, Answered: r.tally.answered, Timeouts: r.tally.timeouts, Wrong: r.tally.wrong,
			Samples: len(r.tally.rtts),
			SliceQPS: map[string]float64{
				"min": r.slices.min, "median": r.slices.median, "mean": r.slices.mean, "stddev": r.slices.stddev,
			},
			PerSlice: map[string][]float64{
				"qps": r.perSlice.qps, "rtt_p50_us": r.perSlice.p50us, "rtt_p90_us": r.perSlice.p90us, "cpu_us_per_query": r.perSlice.cpuUs,
			},
			Setups: r.setups, EndToEnd: r.e2e, PerLayer: r.layers,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644)
}
