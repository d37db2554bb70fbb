package analysis

import (
	"flag"
	"fmt"
	"io"
	"time"
)

// This file is the one place the analysis commands (ruulint, ruudfa)
// define their machine-output flags. The two CLIs had drifted — ruudfa
// grew -json and -sarif but not -out or -timings — and flag drift in
// tooling is the same disease the passes hunt in the simulator:
// conventions that hold only where someone remembered. Both mains now
// register this set; cliflags_test.go pins the parity.

// OutputFlags is the shared machine-output flag surface: terminal JSON
// lines, JSON-lines and SARIF file artifacts, and a timing summary on
// stderr.
type OutputFlags struct {
	// JSON emits one JSON object per finding/result line on stdout.
	JSON bool
	// Out also writes the JSON lines to a file.
	Out string
	// SARIF also writes a SARIF 2.1.0 log to a file.
	SARIF string
	// Timings prints a wall-clock summary to stderr.
	Timings bool
}

// RegisterOutputFlags registers the shared flag set on fs (the
// package-level flag.CommandLine in both mains) and returns the
// destination struct. Names, defaults, and usage strings are defined
// here once so the commands cannot drift.
func RegisterOutputFlags(fs *flag.FlagSet) *OutputFlags {
	of := &OutputFlags{}
	fs.BoolVar(&of.JSON, "json", false, "emit one JSON object per line on stdout")
	fs.StringVar(&of.Out, "out", "", "also write the JSON lines to this file")
	fs.StringVar(&of.SARIF, "sarif", "", "also write a SARIF 2.1.0 log to this file")
	fs.BoolVar(&of.Timings, "timings", false, "print a wall-clock timing summary to stderr")
	return of
}

// TimingsReport is the -timings summary.
type TimingsReport struct {
	// Command is the producing binary ("ruulint").
	Command string
	// Total is end-to-end wall clock for the analysis (load + passes).
	Total time.Duration
	// Load is the parse+typecheck cost; zero when the command loads no
	// Go packages (ruudfa).
	Load time.Duration
	// Findings is the total finding count.
	Findings int
	// Passes is the per-pass breakdown in pass order.
	Passes []PassTiming
}

// Print renders the summary, one aligned line per pass plus load and
// total lines, prefixed with the command name.
func (r TimingsReport) Print(w io.Writer) {
	for _, pt := range r.Passes {
		fmt.Fprintf(w, "%s: %-16s %4d finding(s) %12s\n",
			r.Command, pt.Name, pt.Findings, pt.Elapsed.Round(time.Microsecond))
	}
	if r.Load > 0 {
		fmt.Fprintf(w, "%s: load %s\n", r.Command, r.Load.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "%s: %-16s %4d finding(s) %12s\n",
		r.Command, "total", r.Findings, r.Total.Round(time.Microsecond))
}
