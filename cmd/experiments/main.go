// Command experiments regenerates the paper's tables and figures on
// the simulated testbed.
//
// Usage:
//
//	experiments -all                 # everything
//	experiments -table 1             # Table 1 or 2
//	experiments -fig 2|3|5           # one figure
//	experiments -fig 5 -air 5g       # Figure 5 with the 5G projection
//	experiments -ecs                 # the §4 ECS comparison
//	experiments -x fallback|disagg|ipreuse|loadshed|ecsroute|loadbalance|mesh
//	experiments -x loadbalance -ues 2000000   # X8 at a custom UE scale
//	experiments -x mesh -requests 200         # X9 at a custom crowd volume
//	experiments -seed 7 -runs 25     # change determinism / precision
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/meccdn/meccdn/internal/experiments"
	"github.com/meccdn/meccdn/internal/lte"
)

func main() {
	var (
		table  = flag.Int("table", 0, "render table 1 or 2")
		fig    = flag.Int("fig", 0, "regenerate figure 2, 3, or 5")
		air    = flag.String("air", "4g", "air interface for figure 5: 4g or 5g")
		ecs    = flag.Bool("ecs", false, "run the §4 ECS experiment")
		ext    = flag.String("x", "", "extension experiment: fallback, disagg, ipreuse, loadshed, ecsroute, loadbalance, mesh")
		all    = flag.Bool("all", false, "run everything")
		seed   = flag.Int64("seed", 42, "simulation seed")
		runs   = flag.Int("runs", 15, "runs per bar")
		ues    = flag.Int("ues", 0, "X8 logical UE population (0 means 1.2M)")
		reqs   = flag.Int("requests", 0, "X8/X9 peak requests per tick (0 means the experiment default)")
		format = flag.String("format", "text", "output format for figures: text or csv")
	)
	flag.Parse()

	if err := run(os.Stdout, *table, *fig, *air, *ecs, *ext, *all, *seed, *runs, *ues, *reqs, *format); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, table, fig int, air string, ecs bool, ext string, all bool, seed int64, runs, ues, reqs int, format string) error {
	render := func(r interface {
		Render() string
		CSV() string
	}) string {
		if format == "csv" {
			return r.CSV()
		}
		return r.Render()
	}
	airProfile := lte.LTE4G()
	if air == "5g" {
		airProfile = lte.NR5G()
	}
	ran := false
	if all || table == 1 {
		fmt.Fprintln(out, experiments.RenderTable1())
		ran = true
	}
	if all || table == 2 {
		fmt.Fprintln(out, experiments.RenderTable2())
		ran = true
	}
	if all || fig == 2 {
		res, err := experiments.Figure2(experiments.Fig2Config{Seed: seed, Runs: runs})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, render(res))
		ran = true
	}
	if all || fig == 3 {
		res, err := experiments.Figure3(experiments.Fig3Config{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, render(res))
		ran = true
	}
	if all || fig == 5 {
		res, err := experiments.Figure5(experiments.Fig5Config{Seed: seed, Runs: runs, Air: airProfile})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, render(res))
		ran = true
	}
	if all || ecs {
		res, err := experiments.ECS(experiments.Fig5Config{Seed: seed, Runs: runs})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, render(res))
		ran = true
	}
	exts := map[string]func() (interface{ Render() string }, error){
		"fallback": func() (interface{ Render() string }, error) { return experiments.Fallback(seed, runs) },
		"disagg":   func() (interface{ Render() string }, error) { return experiments.Disaggregation(seed, 0, 0) },
		"ipreuse":  func() (interface{ Render() string }, error) { return experiments.IPReuse(seed, 0) },
		"ecsroute": func() (interface{ Render() string }, error) { return experiments.ECSRouting(seed, 0, 0) },
		"loadshed": func() (interface{ Render() string }, error) { return experiments.LoadShed(seed, 20, nil) },
		"sweep": func() (interface{ Render() string }, error) {
			return experiments.BudgetSweep(experiments.SweepConfig{Seed: seed, Runs: runs})
		},
		"loadbalance": func() (interface{ Render() string }, error) {
			return experiments.LoadBalance(experiments.LoadBalanceConfig{
				Seed: seed, UEs: ues, RequestsPerTick: reqs,
			})
		},
		"mesh": func() (interface{ Render() string }, error) {
			return experiments.Mesh(experiments.MeshConfig{Seed: seed, RequestsPerTick: reqs})
		},
	}
	if all {
		for _, name := range []string{"fallback", "disagg", "ipreuse", "loadshed", "sweep", "ecsroute", "loadbalance", "mesh"} {
			res, err := exts[name]()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res.Render())
		}
		ran = true
	} else if ext != "" {
		f, ok := exts[ext]
		if !ok {
			return fmt.Errorf("unknown extension %q (want fallback, disagg, ipreuse, loadshed, sweep, ecsroute, loadbalance, mesh)", ext)
		}
		res, err := f()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
		ran = true
	}
	if !ran {
		flag.Usage()
	}
	return nil
}
