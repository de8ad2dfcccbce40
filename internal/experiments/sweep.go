package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/meccdn/meccdn/internal/lte"
	"github.com/meccdn/meccdn/internal/simnet"
	"github.com/meccdn/meccdn/internal/stats"
)

// SweepPoint is one C-DNS distance in the budget sweep.
type SweepPoint struct {
	// OneWay is the P-GW→C-DNS one-way link latency.
	OneWay time.Duration
	// Total is the UE-observed resolution latency, as Figure 5's bar
	// height (its 8th–92nd percentile trimmed mean).
	Total time.Duration
	// Resolver is the mean beyond-P-GW portion.
	Resolver time.Duration
	// FitsBudget reports Resolver < sweepBudget.
	FitsBudget bool
}

// SweepResult is experiment X6: how far away can the C-DNS be before
// the DNS part of the lookup blows the latency budget? §4's
// observation is binary (LAN fits, WAN does not); the sweep locates
// the crossover.
type SweepResult struct {
	Points []SweepPoint
	// Crossover is the first swept distance whose resolver portion
	// exceeds the budget (zero if none did).
	Crossover time.Duration
}

// SweepConfig parameterizes BudgetSweep.
type SweepConfig struct {
	Seed int64
	// Runs per point; 0 means 10.
	Runs int
}

// sweepBudget is the DNS-portion budget: the paper's MEC latency
// envelope.
const sweepBudget = 20 * time.Millisecond

// sweepDistances are the one-way P-GW→C-DNS latencies swept.
var sweepDistances = []time.Duration{
	200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond,
	5 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond,
	16 * time.Millisecond, 25 * time.Millisecond,
}

// BudgetSweep measures MEC-L-DNS resolution with the C-DNS placed at
// increasing distances, reporting where the beyond-the-air portion
// crosses the latency budget.
func BudgetSweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	res := &SweepResult{}
	for i, d := range sweepDistances {
		point, err := sweepPoint(cfg.Seed+int64(i), d, cfg.Runs)
		if err != nil {
			return nil, fmt.Errorf("sweep %v: %w", d, err)
		}
		point.FitsBudget = point.Resolver < sweepBudget
		res.Points = append(res.Points, point)
		if !point.FitsBudget && res.Crossover == 0 {
			res.Crossover = d
		}
	}
	return res, nil
}

// sweepPoint measures Figure 5's MEC site with its C-DNS oneWay from
// the P-GW.
func sweepPoint(seed int64, oneWay time.Duration, runs int) (SweepPoint, error) {
	row, _, err := fig5Measure(fig5Scenario{build: buildMECSite(simnet.Constant(oneWay))}, seed, lte.LTE4G(), false, runs)
	return SweepPoint{OneWay: oneWay, Total: row.Bar.Mean, Resolver: row.Resolver}, err
}

// Render prints the sweep.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "X6 §4: C-DNS distance sweep against a %v DNS budget\n", sweepBudget)
	fmt.Fprintf(&b, "%14s %12s %14s %s\n", "c-dns one-way", "total", "DNS portion", "fits budget")
	for _, p := range r.Points {
		fits := "yes"
		if !p.FitsBudget {
			fits = "NO"
		}
		fmt.Fprintf(&b, "%12.1fms %10.1fms %12.1fms %s\n",
			stats.Ms(p.OneWay), stats.Ms(p.Total), stats.Ms(p.Resolver), fits)
	}
	if r.Crossover > 0 {
		fmt.Fprintf(&b, "crossover: the budget breaks once the C-DNS is ≥%.1fms away (one-way)\n", stats.Ms(r.Crossover))
	} else {
		b.WriteString("crossover: never exceeded in the swept range\n")
	}
	return b.String()
}
