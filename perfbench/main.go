// Command perfbench is the repository's end-to-end benchmark. One run
// builds one workload from a seed, trains a GraphSAGE model on it for a
// measured window, scores the model, serves it under seeded open-loop
// traffic for a second window, checks that every output is correct, and
// prints one JSON result line. With --trace 1 it repeats the training
// through the engine's public entry points with a span around each call
// and reports per-layer numbers instead. See README.md in this directory.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload train-fit --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies what a run measured, on what.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Dataset    string `json:"dataset"`
	Nodes      int    `json:"nodes"`
	Edges      int64  `json:"edges"`
	FeatureDim int    `json:"feature_dim"`
	TrainSeeds int    `json:"train_seeds"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Environ(), os.Stdout, os.Stderr))
}

func run(args, environ []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the data, weights, sampling and traffic")
	seconds := fs.Int("seconds", 10, "length of each measured window (training, serving)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if set := bettyVars(environ); len(set) > 0 {
		fmt.Fprintf(stderr, "perfbench: refusing to run with %s set: the program reads BETTY_* variables as "+
			"process-global settings, so the run would measure a different configuration\n", strings.Join(set, ", "))
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	res, fp, err := runWorkload(w, *seed, float64(*seconds), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]fingerprint{"fingerprint": fp}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bettyVars lists the BETTY_* variables set in environ.
func bettyVars(environ []string) []string {
	var set []string
	for _, kv := range environ {
		k, _, _ := strings.Cut(kv, "=")
		if strings.HasPrefix(k, "BETTY_") {
			set = append(set, k)
		}
	}
	sort.Strings(set)
	return set
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func newFingerprint(w workload, seed uint64, trace bool, r *rig) fingerprint {
	return fingerprint{
		Workload:   w.name,
		Seed:       seed,
		Trace:      trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Dataset:    r.ds.Name,
		Nodes:      int(r.ds.Graph.NumNodes()),
		Edges:      r.ds.Graph.NumEdges(),
		FeatureDim: r.ds.FeatureDim(),
		TrainSeeds: len(r.ds.TrainIdx),
	}
}

// checks counts correctness checks; a failed one fails the run.
type checks struct {
	run    int
	failed []string
}

func (c *checks) require(err error, what string) {
	c.run++
	if err != nil {
		c.failed = append(c.failed, fmt.Sprintf("%s: %v", what, err))
	}
}

func (c *checks) requiref(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = errors.New("violated")
	}
	c.require(err, fmt.Sprintf(format, args...))
}
