// Command redbud-trace regenerates Figure 5's blktrace-style disk-seek
// panels and writes one CSV per (configuration, file size) panel:
//
//	redbud-trace -out /tmp/fig5
//
// produces files like /tmp/fig5/seeks-redbud+dc+sd-32KB.csv with rows
// "t_us,offset,seek", ready for any plotting tool.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"redbud/internal/bench"
	"redbud/internal/iotrace"
)

func main() {
	var (
		out     = flag.String("out", "fig5-traces", "output directory for CSV files")
		clients = flag.Int("clients", 7, "number of client nodes")
		scale   = flag.Float64("scale", 0.02, "virtual-time compression in (0, 1]")
		size    = flag.Float64("size", 0.3, "workload size factor in (0, 1]")
	)
	flag.Parse()

	opt := bench.DefaultOptions()
	opt.Clients = *clients
	opt.Scale = *scale
	opt.SizeFactor = *size

	panels, err := bench.Fig5(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig5:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bench.PrintFig5(os.Stdout, panels)
	for _, p := range panels {
		name := fmt.Sprintf("seeks-%s-%s.csv", p.System, bench.SizeLabel(p.FileSize))
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = iotrace.WriteCSV(f, p.Series)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}
}
