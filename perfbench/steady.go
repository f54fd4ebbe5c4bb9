package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs the workload k times, each in a fresh process with the
// next input seed, and prints every end-to-end metric's median, quartiles,
// interquartile spread over the median and largest deviation from the
// median: the evidence behind the bounds in BENCHMARK.json.
func runSteady(o *options, k int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		seed := o.Seed + int64(i)
		cmd := exec.Command(exe, "-workload", o.W.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.Seconds), "-trace", "0", "-start", strconv.FormatInt(o.HeldOut, 10),
			"-random-scenario", strconv.FormatInt(o.RandomSeed, 10), "-out", o.Out)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
			return fmt.Errorf("run %d (seed %d) output: %w", i+1, seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("run %d (seed %d): %d of %d seeds failed", i+1, seed, res.Failed, res.Attempted)
		}
		fmt.Printf("run %2d seed %3d:", i+1, seed)
		for _, name := range endToEndNames {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Printf(" %s=%.6g", name, m.Value)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-18s %12s %12s %12s %8s %8s  (%s, %d runs)\n", "metric", "q1", "median", "q3", "iqr/med", "maxdev", o.W.Name, k)
	for _, name := range endToEndNames {
		st := spreadOf(values[name])
		fmt.Printf("%-18s %12.6g %12.6g %12.6g %8.4f %8.4f  %s\n", name, st.Q1, st.Median, st.Q3, st.IQRFrac, st.MaxDevFrac, units[name])
	}
	return nil
}

// spread summarizes repeated measurements of one metric.
type spread struct {
	Q1, Median, Q3 float64
	IQRFrac        float64 // (Q3 - Q1) / Median
	MaxDevFrac     float64 // largest |x - Median| / Median
}

func spreadOf(xs []float64) spread {
	q := quartiles(xs)
	st := spread{Q1: q[0], Median: q[1], Q3: q[2]}
	if st.Median != 0 {
		st.IQRFrac = (st.Q3 - st.Q1) / st.Median
		for _, x := range xs {
			st.MaxDevFrac = math.Max(st.MaxDevFrac, math.Abs(x-st.Median)/st.Median)
		}
	}
	return st
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the bounds are judged. It needs at
// least two values.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		v := 0.0
		if ld == 1 {
			v = d[0]
		}
		return [3]float64{v, v, v}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}
