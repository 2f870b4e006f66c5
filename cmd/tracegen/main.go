// Command tracegen generates, inspects and replays the synthetic MMPP
// traces of the simulation study.
//
// Usage:
//
//	tracegen -slots 10000 -ports 16 -mode work > trace.txt
//	tracegen -stats < trace.txt
//	tracegen -replay LWD -ports 16 -mode work -buffer 256 < trace.txt
//	tracegen -replay LWD -ports 16 -mode work -in trace.txt
//
// Generation writes each slot as the generator draws it, and -stats and
// -replay stream the trace, text or binary, from stdin or from the -in
// file, so arbitrarily long traces are processed in O(peak burst)
// memory. A flag the chosen action would ignore (-buffer when
// generating, -slots under -replay, ...) is refused by name with exit
// status 1 before anything is read or written.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"smbm/internal/cli"
)

func main() {
	var (
		slots    = flag.Int("slots", 10000, "trace length in slots")
		ports    = flag.Int("ports", 16, "number of output ports")
		maxLabel = flag.Int("k", 0, "max label (default: ports); -mode work requires k = ports")
		sources  = flag.Int("sources", 100, "MMPP on-off sources")
		rate     = flag.Float64("rate", 0, "mean packets per slot (default: 1.5x ports)")
		mode     = flag.String("mode", "work", `labeling: "work" (processing model, contiguous works), "value" (uniform values) or "value-by-port"`)
		affinity = flag.Bool("affinity", true, "pin each source to one port")
		seed     = flag.Int64("seed", 1, "RNG seed")
		binFmt   = flag.Bool("binary", false, "emit the compact binary trace format")
		stats    = flag.Bool("stats", false, "read a trace (stdin or -in) and print summary statistics instead")
		replay   = flag.String("replay", "", "read a trace (stdin or -in) and replay it under the named policy")
		buffer   = flag.Int("buffer", 0, "buffer size for -replay (default 2x ports)")
		flush    = flag.Int("flush", 0, "flushout period for -replay (0 = final drain only)")
		input    = flag.String("in", "", "read the trace from this file instead of stdin (-stats, -replay)")
	)
	flag.Parse()
	action := "generate"
	switch {
	case *stats:
		action = "stats"
	case *replay != "":
		action = "replay"
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := cli.RefuseTracegenFlags(action, set); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	// -stats and -replay read the trace from -in, or else from stdin.
	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	var err error
	switch action {
	case "stats":
		err = cli.Stats(os.Stdout, in)
	case "replay":
		err = cli.Replay(os.Stdout, in, cli.ReplayOptions{
			Policy:   *replay,
			Ports:    *ports,
			MaxLabel: *maxLabel,
			Buffer:   *buffer,
			Flush:    *flush,
			Mode:     *mode,
		})
	default:
		err = cli.Generate(os.Stdout, cli.GenerateOptions{
			Slots:    *slots,
			Ports:    *ports,
			MaxLabel: *maxLabel,
			Sources:  *sources,
			Rate:     *rate,
			Mode:     *mode,
			Affinity: *affinity,
			Seed:     *seed,
			Binary:   *binFmt,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
