// Command redbud-bench regenerates the paper's evaluation figures against
// the simulated cluster and prints them as tables:
//
//	redbud-bench -fig 3          # Figure 3: system comparison
//	redbud-bench -fig all        # every figure
//	redbud-bench -fig 4 -clients 7 -size 1 -scale 0.02
//
// All reported numbers are in virtual time (see internal/clock); -scale only
// changes how long the run takes on the wall.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"redbud/internal/bench"
	"redbud/internal/obs"
)

// figures are the values -fig accepts.
var figures = []string{"3", "4", "5", "6", "7", "obs", "shards", "all"}

// checkFig rejects a -fig value that names no figure, so a typo fails the run
// instead of printing nothing and exiting 0.
func checkFig(name string) error {
	for _, f := range figures {
		if name == f {
			return nil
		}
	}
	return fmt.Errorf("unknown figure %q; valid figures: %s", name, strings.Join(figures, ", "))
}

// checkParams rejects run parameters no figure is defined for: without
// clients there is nothing to measure, a workload cannot be scaled by a
// factor outside (0, 1], and the scaled clock cannot run faster than
// scale 1.
func checkParams(clients int, scale, size float64) error {
	switch {
	case clients < 1:
		return fmt.Errorf("-clients %d: want at least 1", clients)
	case !(scale > 0 && scale <= 1):
		return fmt.Errorf("-scale %g: want a value in (0, 1]", scale)
	case !(size > 0 && size <= 1):
		return fmt.Errorf("-size %g: want a value in (0, 1]", size)
	}
	return nil
}

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: "+strings.Join(figures, ", ")+" (obs and shards run only when named)")
		clients = flag.Int("clients", 7, "number of client nodes")
		scale   = flag.Float64("scale", 0.02, "virtual-time compression in (0, 1]")
		size    = flag.Float64("size", 0.5, "workload size factor in (0, 1]")
		seed    = flag.Int64("seed", 1, "workload seed")
		obsOut  = flag.String("obs-trace", "", "path for the Chrome/Perfetto trace JSON when -fig obs (empty disables)")
	)
	flag.Parse()
	err := checkFig(*fig)
	if err == nil {
		err = checkParams(*clients, *scale, *size)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "redbud-bench: %v\n", err)
		os.Exit(2)
	}

	opt := bench.DefaultOptions()
	opt.Clients = *clients
	opt.Scale = *scale
	opt.SizeFactor = *size
	opt.Seed = *seed

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("== %s (clients=%d scale=%g size=%g)\n", name, opt.Clients, opt.Scale, opt.SizeFactor)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("   [%s wall]\n\n", time.Since(start).Round(time.Millisecond))
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("3") {
		run("Figure 3", func() error {
			rows, err := bench.Fig3(opt)
			if err != nil {
				return err
			}
			bench.PrintFig3(os.Stdout, rows)
			return nil
		})
	}
	if want("4") {
		run("Figure 4", func() error {
			rows, err := bench.Fig4(opt)
			if err != nil {
				return err
			}
			bench.PrintFig4(os.Stdout, rows)
			return nil
		})
	}
	if want("5") {
		run("Figure 5", func() error {
			panels, err := bench.Fig5(opt)
			if err != nil {
				return err
			}
			bench.PrintFig5(os.Stdout, panels)
			fmt.Println("   (per-panel CSV series: cmd/redbud-trace)")
			return nil
		})
	}
	if want("6") {
		run("Figure 6", func() error {
			traces, err := bench.Fig6(opt)
			if err != nil {
				return err
			}
			bench.PrintFig6(os.Stdout, traces)
			return nil
		})
	}
	// The obs benchmark is opt-in ("-fig obs"), not part of "all": it runs
	// the same workload twice to price the tracing overhead.
	if *fig == "obs" {
		run("Observability", func() error {
			rep, spans, err := bench.RunObsBench(opt)
			if err != nil {
				return err
			}
			bench.PrintObs(os.Stdout, rep)
			if *obsOut != "" {
				f, err := os.Create(*obsOut)
				if err != nil {
					return err
				}
				if err := obs.WriteChromeTrace(f, spans); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("   wrote %s (load in ui.perfetto.dev)\n", *obsOut)
			}
			return nil
		})
	}

	// The sharding figure is opt-in ("-fig shards"), not part of "all": it
	// builds and tears down four whole clusters (1, 2, 4, 8 shards).
	if *fig == "shards" {
		run("Shards", func() error {
			rows, err := bench.FigShards(opt)
			if err != nil {
				return err
			}
			bench.PrintFigShards(os.Stdout, rows)
			return nil
		})
	}

	if want("7") {
		run("Figure 7", func() error {
			cells, err := bench.Fig7(opt)
			if err != nil {
				return err
			}
			bench.PrintFig7(os.Stdout, cells)
			return nil
		})
	}
}
