// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks that the program's outputs are
// correct, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	go run . -workload whatif-107 -seed 42 -seconds 20 -trace 0
//
// Workloads, metrics, and the reasons for each are described in
// README.md beside this file. Every layer is measured from outside: the
// benchmark times its own calls into the modules' public functions and
// reads deltas of the telemetry the program already exports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the machine-readable outcome, printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", devSeed, fmt.Sprintf("workload seed (development seed %d, held-out seed %d)", devSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// One process on one P, so the program's work and the host-speed
	// samples share a thread (see hostspeed.go) and the other vCPUs are
	// left to the rest of the machine. The fleet's Workers default to
	// GOMAXPROCS, so they follow.
	runtime.GOMAXPROCS(1)
	host, _ := json.Marshal(readHost(".")) // strings and ints only: cannot fail
	fmt.Fprintf(stdout, "host %s\n", host)

	b := &bench{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, log: stdout}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// sortedKeys returns m's keys in order, for deterministic printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
