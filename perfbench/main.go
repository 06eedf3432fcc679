// Command perfbench is the repository's benchmark of record. It runs one
// workload per invocation — Table 1 placement, Table 2 area+wire adjust,
// Table 3 routing, or the floorpland request path — checks every output,
// and prints every metric by name with its unit. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// telemetry off; with -trace 1 they are the per-layer ones, taken from
// a separate traced pass. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// tiny swaps every design list for a few small designs, so the
	// benchmark's own tests run in seconds. Tests set it; no flag does.
	tiny bool
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0), in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"designs_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"util_pct_mean", "%"},
	{"hpwl_mean", "lu"},
	{"routed_area_mean", "lu2"},
	{"routed_wirelength_mean", "lu"},
	{"alloc_mb_per_design", "MB"},
}

// perLayer are the metrics of a traced run (-trace 1), in print order.
// A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"failed_pct", "%"},
	{"core.place_s", "s"},
	{"core.step_overhead_s", "s"},
	{"core.adjust_s", "s"},
	{"core.adjust_gain_pct", "%"},
	{"geom.covers_per_step", "count"},
	{"mipmodel.binaries_per_step", "count"},
	{"mipmodel.presolve_fixed", "count"},
	{"milp.bb_s", "s"},
	{"milp.nodes", "count"},
	{"milp.nodes_per_s", "1/s"},
	{"milp.steps_optimal_pct", "%"},
	{"milp.gap_mean", "ratio"},
	{"milp.clock_stopped_steps", "count"},
	{"lp.warm_iters", "count"},
	{"lp.iters_per_node", "count"},
	{"lp.warm_refactors", "count"},
	{"lp.cold_solves", "count"},
	{"lp.cold_iters", "count"},
	{"lp.cold_degenerate_pct", "%"},
	{"lp.cold_refactors", "count"},
	{"lp.cold_ms", "ms"},
	{"lp.cold_nonoptimal", "count"},
	{"route.shortest_s", "s"},
	{"route.weighted_s", "s"},
	{"route.overflow", "count"},
	{"route.wirelength", "lu"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.solve_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.cache_hit_pct", "%"},
	{"server.hit_latency_ms_p50", "ms"},
	{"server.rejected", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.events", "count"},
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	// invalid lists why the run cannot be trusted even if every output
	// passed its check: a step stopped by the clock, or counts that did
	// not repeat between passes.
	invalid []string
	values  map[string]float64
}

func (r *report) correct() bool { return r.failed == 0 && len(r.invalid) == 0 }

// failedPct is the share of attempted designs or requests that failed
// their output check.
func (r *report) failedPct() float64 {
	if r.attempted == 0 {
		return 0
	}
	return 100 * float64(r.failed) / float64(r.attempted)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*report, error){
	"place-area":  runPlaceArea,
	"wire-adjust": runWireAdjust,
	"route-env":   runRouteEnv,
	"service-mix": runServiceMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: orders the designs and, for service-mix, picks the repeated requests")
	flag.IntVar(&o.seconds, "seconds", 20, "nominal measuring time; sets the fixed pass count of a run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with telemetry off; 1: per-layer metrics from a traced pass")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds >= 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// writeReport prints the human-readable lines, the host line and, last,
// the JSON result line. A run with failed outputs stops before its
// metrics are complete, so its report carries only those measured.
func writeReport(w io.Writer, o options, rep *report) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
		rep.values["failed_pct"] = rep.failedPct()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !o.trace {
			if rep.failed > 0 {
				continue
			}
			return fmt.Errorf("%s: end-to-end metric %s was not measured", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", o.workload, d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, why := range rep.invalid {
		fmt.Fprintln(w, "invalid run:", why)
	}
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%d trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.workload, o.seed, o.seconds, o.trace)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
