// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation section for the cmd/experiments
// binary.
//
// Two standard configurations exist: Quick (default) maps kernels
// scaled to ~25% onto the 8x8 preset so the whole suite runs in
// minutes; Full reproduces the paper's setup (16x16 CGRA with 4x4
// clusters, full-size kernels) and takes tens of minutes. Both produce
// the same tables and figures; EXPERIMENTS.md records paper-vs-measured
// numbers for both.
package bench

import (
	"time"

	"panorama/internal/arch"
	"panorama/internal/clustermap"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/obs"
	"panorama/internal/spr"
	"panorama/internal/ultrafast"
)

// Config selects the experiment scale and seeds.
type Config struct {
	Name        string
	Arch        func() *arch.CGRA // main evaluation target
	ArchSmall   func() *arch.CGRA // the 9x9 comparison point of Figure 8
	KernelScale float64
	Kernels     []string // kernels to evaluate (Table 1a order)
	Fig8Kernels []string // subset used for the power comparison
	Fig5Kernels []string // the four kernels of Figure 5
	Seed        int64

	// Workers bounds the worker pool every harness function runs its
	// kernel×mapper×arch configurations through (the cmd/experiments
	// -j flag): 0 means one per CPU, 1 forces the serial reference
	// order. Output tables are identical at any value — each
	// configuration is an independent seeded run whose result lands at
	// a fixed row index.
	Workers int

	// Timeout caps the wall clock of each individual configuration
	// (one kernel×mapper×arch run); 0 means unbounded. A run that
	// exceeds it appears in its table as an explicit "timeout" row
	// rather than aborting the whole harness, so row counts stay
	// stable whatever times out.
	Timeout time.Duration

	// TraceSpan, when non-nil, is the parent span every configuration
	// run records under (one "config" child per kernel×mapper×arch run,
	// with the pipeline's stage spans below it). cmd/experiments sets
	// one per section for its -trace-out flag; nil disables tracing.
	TraceSpan *obs.Span

	SPR        spr.Options
	UltraFast  ultrafast.Options
	ClusterMap clustermap.Options
	Panorama   core.Config
}

// Quick returns the default scaled-down configuration.
func Quick() Config {
	return Config{
		Name:        "quick",
		Arch:        arch.Preset8x8,
		ArchSmall:   arch.Preset4x4,
		KernelScale: 0.25,
		Kernels:     kernels.Names(),
		Fig8Kernels: []string{"fir", "cordic", "mmul", "conv2d"},
		Fig5Kernels: []string{"fir", "cordic", "conv2d", "mmul"},
		Seed:        1,
	}
}

// Full returns the paper-scale configuration: full-size kernels on the
// 16x16 CGRA with 4x4 clusters, 9x9 for the power comparison.
func Full() Config {
	return Config{
		Name:        "full",
		Arch:        arch.Preset16x16,
		ArchSmall:   arch.Preset9x9,
		KernelScale: 1.0,
		Kernels:     kernels.Names(),
		Fig8Kernels: []string{"fir", "cordic", "mmul", "conv2d"},
		Fig5Kernels: []string{"fir", "cordic", "conv2d", "mmul"},
		Seed:        1,
	}
}

func (c Config) panoramaConfig() core.Config {
	cfg := c.Panorama
	if cfg.Seed == 0 {
		cfg.Seed = c.Seed
	}
	cfg.RelaxOnFailure = true
	cfg.ClusterMap = c.ClusterMap
	if cfg.Workers == 0 {
		// The harness already fans out across configurations; keep each
		// pipeline serial inside so the pool is not oversubscribed.
		cfg.Workers = 1
	}
	return cfg
}

func (c Config) sprLower() core.SPRLower {
	opts := c.SPR
	if opts.Seed == 0 {
		opts.Seed = c.Seed
	}
	return core.SPRLower{Options: opts}
}

func (c Config) ultraFastLower() core.UltraFastLower {
	return core.UltraFastLower{Options: c.UltraFast}
}

func (c Config) buildKernel(name string) (*dfg.Graph, error) {
	spec, err := kernels.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Build(c.KernelScale), nil
}
