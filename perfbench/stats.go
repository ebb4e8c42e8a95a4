package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count). It panics on an empty slice: callers always have at
// least one sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles job_tail_s may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest ladder percentile of v that has at least ten
// samples beyond it, with that percentile. With too few samples for any
// rung it returns the maximum, labelled percentile 100.
func tail(v []float64) (value, pct float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		// Nearest-rank percentile: the smallest sample with at least p% of
		// the samples at or below it.
		k := int(math.Ceil(p / 100 * float64(n)))
		if k < 1 {
			k = 1
		}
		if n-k >= 10 {
			return s[k-1], p
		}
	}
	return s[n-1], 100
}

// ratio divides num by base. A zero base has no meaningful ratio, so it
// reports ok=false ("missing") instead of 0, NaN or Inf.
func ratio(num, base float64) (float64, bool) {
	if base == 0 || math.IsNaN(base) || math.IsNaN(num) {
		return 0, false
	}
	return num / base, true
}

// selfCPU returns this process's CPU seconds, user plus system.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// sampleRSS samples this process's resident set every 5 ms until stop is
// closed, then sends the peak in MB. It reads /proc/self/statm into a
// fixed buffer, so sampling allocates nothing per sample.
func sampleRSS(stop <-chan struct{}) (<-chan float64, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	out := make(chan float64, 1)
	go func() {
		defer f.Close()
		var buf [128]byte
		page := float64(os.Getpagesize())
		var peak float64
		sample := func() {
			n, _ := f.ReadAt(buf[:], 0)
			// statm is "size resident shared ...", in pages.
			var field, resident int
			for _, c := range buf[:n] {
				if c == ' ' {
					if field++; field > 1 {
						break
					}
					continue
				}
				if field == 1 {
					resident = 10*resident + int(c-'0')
				}
			}
			peak = math.Max(peak, float64(resident)*page/(1<<20))
		}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		sample()
		for {
			select {
			case <-stop:
				sample()
				out <- peak
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return out, nil
}

func rusageCPU(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// promValues parses the Prometheus text exposition of the daemon's
// /metrics: every unlabelled sample (counters, gauges, histogram _sum and
// _count) by name.
func promValues(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %s: %w", name, err)
		}
		out[name] = f
	}
	return out, sc.Err()
}

// totalAllocFrom extracts "# TotalAlloc = N" from a /debug/pprof/heap
// ?debug=1 page.
func totalAllocFrom(page string) (uint64, error) {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("heap profile has no TotalAlloc line")
}
