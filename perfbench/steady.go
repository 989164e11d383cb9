package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// runSteady is the steadiness command: it runs each named workload n
// times, one fresh process per run with seeds 1..n, and prints for each metric the
// median, the quartiles, the interquartile range as a share of the median
// and the full range as a share of the median. A metric whose
// interquartile share exceeds its bound cannot gate a change.
func runSteady(names []string, n, seconds, trace int) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var wall []float64
		for seed := 1; seed <= n; seed++ {
			t0 := time.Now()
			out, err := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace)).Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			wall = append(wall, time.Since(t0).Seconds())
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d", w, seed, res.Correct, res.Failed)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Printf("%s: %d runs, %.1f s per run\n", w, n, median(wall))
		fmt.Printf("  %-34s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "iqr%", "range%")
		for _, name := range sortedKeys(values) {
			xs := values[name]
			q := quartiles(xs)
			lo, hi := minMax(xs)
			rel := func(v float64) float64 {
				if q[1] == 0 {
					return 0
				}
				return 100 * v / abs(q[1])
			}
			fmt.Printf("  %-34s %12.4g %12.4g %12.4g %8.1f %8.1f  %s\n",
				name, q[0], q[1], q[2], rel(q[2]-q[0]), rel(hi-lo), units[name])
		}
	}
	return nil
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (runResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r runResult
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}

// quartiles returns the three cut points the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var out [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
