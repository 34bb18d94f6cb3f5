// Command perfbench is the repository's end-to-end benchmark. One run
// measures one seeded workload for a fixed time and prints, as its last
// line, a JSON object with the run's correctness, request counts and
// metrics: the end-to-end metrics untraced (-trace 0), or the per-layer
// ledger from a separate traced run (-trace 1). README.md in this
// directory defines every workload and metric.
//
//	go build -o perfbench . && ./perfbench -workload serve-mixed-churn -seed 1 -seconds 30 -trace 0 \
//	    -rates serve-rotate-burst=24:40,serve-mixed-churn=75:120
//
// run.py builds and runs it as BENCHMARK.json at the repository root says.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values. Units are fixed per name (see
// README.md); set keeps them next to the code that measures the figure.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what a workload run returns: counts, correctness, both
// metric sets (the one not asked for stays empty), and the provenance and
// ledger printed above the result line.
type outcome struct {
	attempted, failed int64
	wrong             []string // failed correctness checks, one line each
	e2e, layers       metrics
	info              map[string]any
	ledger            *ledger
}

func newOutcome() *outcome {
	return &outcome{e2e: metrics{}, layers: metrics{}, info: map[string]any{}}
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rates    map[string][2]float64 // workload → {light, heavy} offered req/s
}

type workload struct {
	name string
	run  func(opt options) (*outcome, error)
}

var workloads = []workload{
	{"serve-rotate-burst", func(o options) (*outcome, error) { return runServe(o, rotateBurst) }},
	{"serve-mixed-churn", func(o options) (*outcome, error) { return runServe(o, mixedChurn) }},
	{"circuit-bootstrap", runCircuit},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var opt options
	var trace int
	var rates string
	flag.StringVar(&opt.workload, "workload", "", "workload name")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.Float64Var(&opt.seconds, "seconds", 30, "measured seconds, split over the workload's phases")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&rates, "rates", "", "fixed offered loads, name=light:heavy req/s, comma-separated")
	flag.Parse()
	opt.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if opt.seconds < 4 {
		return fmt.Errorf("-seconds %g: want at least 4", opt.seconds)
	}
	var err error
	if opt.rates, err = parseRates(rates); err != nil {
		return err
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available: load would come from oversubscribed threads", procs, cpus)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("-workload %q: want one of serve-rotate-burst, serve-mixed-churn, circuit-bootstrap", opt.workload)
	}

	out, err := wl.run(opt)
	if err != nil {
		return err
	}
	out.info["workload"] = opt.workload
	out.info["seed"] = opt.seed
	out.info["seconds"] = opt.seconds
	out.info["traced"] = opt.trace
	out.info["host"] = hostInfo()
	res := result{
		Correct:   len(out.wrong) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if opt.trace {
		res.Metrics = out.layers
	}
	printReport(opt, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("wrong outputs: " + strings.Join(out.wrong, "; "))
	}
	return nil
}

func parseRates(s string) (map[string][2]float64, error) {
	out := map[string][2]float64{}
	if s == "" {
		return out, nil
	}
	for _, item := range strings.Split(s, ",") {
		name, pair, ok := strings.Cut(item, "=")
		lo, hi, ok2 := strings.Cut(pair, ":")
		if !ok || !ok2 {
			return nil, fmt.Errorf("-rates %q: want name=light:heavy", item)
		}
		l, err1 := strconv.ParseFloat(lo, 64)
		h, err2 := strconv.ParseFloat(hi, 64)
		if err1 != nil || err2 != nil || l <= 0 || h <= l {
			return nil, fmt.Errorf("-rates %q: want 0 < light < heavy", item)
		}
		out[name] = [2]float64{l, h}
	}
	return out, nil
}

// hostInfo records what the figures were measured on.
func hostInfo() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h["goamd64"] = s.Value
			}
		}
	}
	// The CPU model and flags come from the kernel's cpuinfo; absent on
	// systems without procfs.
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			k = strings.TrimSpace(k)
			if !ok || h[k] != nil {
				continue
			}
			if k == "model name" || k == "flags" {
				h[k] = strings.TrimSpace(v)
			}
		}
	}
	return h
}

// printReport writes the human-readable part of a run: provenance, every
// metric with its unit, and the traced run's ledger.
func printReport(opt options, out *outcome, res result) {
	info, err := json.MarshalIndent(out.info, "", "  ")
	if err == nil {
		fmt.Printf("provenance %s\n", info)
	}
	show := func(title string, m metrics) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, n := range names {
			fmt.Printf("  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	failFrac := 0.0
	if out.attempted > 0 {
		failFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("%s seed %d: attempted %d, failed %d, fail_frac %.4g ratio, correct %v\n",
		opt.workload, opt.seed, out.attempted, out.failed, failFrac, res.Correct)
	for _, w := range out.wrong {
		fmt.Println("  WRONG:", w)
	}
	if opt.trace {
		show("per-layer metrics (traced run):", out.layers)
		if out.ledger != nil {
			out.ledger.print(os.Stdout)
		}
		return
	}
	show("end-to-end metrics:", out.e2e)
}

// bitsOf converts a maximum absolute slot error into bits of precision.
func bitsOf(maxErr float64) float64 {
	if maxErr <= 0 {
		return 64
	}
	return math.Min(64, -math.Log2(maxErr))
}
