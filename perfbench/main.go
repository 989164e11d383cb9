// Command perfbench is the repository's benchmark. It starts the program
// in this process — the multi-tenant serve.Server behind the REST/SSE API
// and the newline-JSON wire router, both on loopback — and drives it the
// way its users do, on one of three workloads:
//
//	model-edit    REST edits of a 300-object model, timed to SSE watchers
//	event-stream  wire-posted resource events into 16 small tenants
//	tenant-churn  REST reads, writes and event posts across 48 tenants
//	              on two bundles, more than stay resident
//
// Every run ends with correctness checks computed apart from the program,
// and prints one JSON object as its last line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures a user sees; with
// --trace 1 they are the per-layer ladder (see ladder.go). --steady N runs
// every workload (or the one --workload names) N times in fresh processes
// and prints each metric's median, quartiles and spread. Run it through run.sh, which builds it; see
// README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps a workload name to its timed run.
var workloads = map[string]func(seed int64, seconds int) (*result, error){
	"model-edit":   runModelEdit,
	"event-stream": runEventStream,
	"tenant-churn": runTenantChurn,
}

// workloadNames lists the workloads in the order the README describes them.
var workloadNames = []string{"model-edit", "event-stream", "tenant-churn"}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up stack is the one measured.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	order             []string
	errs              []error
	notes             []string
}

func (r *result) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// checkErr records a failed correctness check (nil is a pass).
func (r *result) checkErr(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// note records a human-readable line printed before the result.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupRepeated sets a workload up setupReps times, tearing down all but
// the last, which it returns. It reports setup_s as the median set-up's
// process CPU time, in seconds: on a machine whose hypervisor steals CPU
// in bursts lasting seconds, wall-clock set-up time of a fraction of a
// second swung by half between runs, while CPU time measures the same work
// steadily. The median wall-clock time is a reference figure.
func setupRepeated[S any](res *result, setup func() (S, error), teardown func(S)) (S, error) {
	var s S
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		// Collect the torn-down stack first, so no set-up pays for
		// another's garbage.
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		next, err := setup()
		if err != nil {
			return s, fmt.Errorf("setup: %w", err)
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		if i < setupReps-1 {
			teardown(next)
		}
		s = next
	}
	res.add("setup_s", "s", median(cpu))
	res.note("set-up: median of %d, %.3f s CPU, %.3f s wall", setupReps, median(cpu), median(wall))
	return s, nil
}

func main() {
	workload := flag.String("workload", "", "workload: model-edit, event-stream or tenant-churn")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the per-layer ladder instead of the end-to-end measurement")
	steady := flag.Int("steady", 0, "run each workload (or only --workload) this many times, seeds 1..N, and print the spread of each metric")
	flag.Parse()
	if *steady > 0 {
		names := workloadNames
		if *workload != "" {
			names = []string{*workload}
		}
		if err := runSteady(names, *steady, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runLadder(*workload, *seed, *seconds)
	} else {
		res, err = run(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, e := range res.errs {
		fmt.Println("# CHECK FAILED:", e)
	}
	for _, name := range res.order {
		m := res.metrics[name]
		fmt.Printf("%-34s %14s %s\n", name, fmtFloat(m.Value), m.Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.errs) == 0, res.attempted, res.failed, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
