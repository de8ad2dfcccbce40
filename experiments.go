package meccdn

import (
	"github.com/meccdn/meccdn/internal/experiments"
)

// Fig5Config parameterizes RunFigure5; see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
type Fig5Config = experiments.Fig5Config

// RunFigure5 regenerates the Figure 5 deployment comparison.
func RunFigure5(cfg Fig5Config) (*experiments.Fig5Result, error) { return experiments.Figure5(cfg) }
