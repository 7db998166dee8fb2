package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of xs, interpolating between closest ranks;
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method, so spreads match the acceptance procedure's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// batch gathers the passes of a batch workload, which repeats the same
// operations in the same order. Its latency sample is the pass: the wall
// time a user waits for the whole batch. Throughput uses the median pass,
// and each operation's latency, reported in info, is its median over the
// passes, so a slow stretch on a shared machine moves none of them much.
// Times are at the reference core speed; info keeps the raw pass times.
//
// A traced measurement traces every other pass, starting with the first;
// the tracing overhead is the median traced pass over the median untraced
// one, both taken in the same stretch of time.
type batch struct {
	lat    [][]float64 // per operation, one entry per pass
	passes []float64   // seconds
	raw    []float64   // seconds, as measured
	traced []bool
}

// more reports whether another pass fits the budget; the first always does.
func (b *batch) more(start time.Time, budget float64) bool {
	return len(b.raw) == 0 || time.Since(start).Seconds()+quantile(b.raw, 0.5) <= budget
}

// tracer returns tr for a pass to be traced, nil otherwise.
func (b *batch) tracer(tr *tracer) *tracer {
	if len(b.passes)%2 == 0 {
		return tr
	}
	return nil
}

// add records a pass that took seconds, with per-operation latencies latMs,
// both as measured, and the speed scale probed during it.
func (b *batch) add(latMs []float64, seconds, scale float64, traced bool) {
	for len(b.lat) < len(latMs) {
		b.lat = append(b.lat, nil)
	}
	for i, l := range latMs {
		b.lat[i] = append(b.lat[i], l*scale)
	}
	b.passes = append(b.passes, seconds*scale)
	b.raw = append(b.raw, seconds)
	b.traced = append(b.traced, traced)
}

// fill sets m's latencies, throughput, tracing overhead and, there being
// no latency limit on a batch operation, its share of correct operations.
func (b *batch) fill(m *measurement) {
	perOp := make([]float64, len(b.lat))
	for i, ls := range b.lat {
		perOp[i] = quantile(ls, 0.5)
	}
	m.latMs = make([]float64, len(b.passes))
	for i, s := range b.passes {
		m.latMs[i] = s * 1000
	}
	m.throughput = float64(len(b.lat)) / quantile(b.passes, 0.5)
	m.sloOK = ratio(float64(m.attempted-m.failed), float64(m.attempted))
	var traced, plain []float64
	for i, s := range b.passes {
		if b.traced[i] {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	if len(traced) > 0 && len(plain) > 0 {
		m.overhead = quantile(traced, 0.5)/quantile(plain, 0.5) - 1
	}
	m.info["passes"] = len(b.passes)
	m.info["pass_s"] = b.passes
	m.info["raw_pass_s"] = b.raw
	m.info["speed_scale"] = sum(b.passes) / sum(b.raw)
	m.info["ops_per_pass"] = len(perOp)
	m.info["op_p50_ms"] = quantile(perOp, 0.5)
	m.info["op_p99_ms"] = quantile(perOp, 0.99)
}

// goCounters are Go runtime totals: CPU seconds spent in garbage
// collection and in all (non-idle) work, and bytes allocated.
type goCounters struct{ gcCPU, usedCPU, allocBytes float64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return goCounters{
		gcCPU:      s[0].Value.Float64(),
		usedCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		allocBytes: float64(s[3].Value.Uint64()),
	}
}

// track starts counting; the returned function adds what the runtime
// spent since.
func (c *goCounters) track() func() {
	start := readGoCounters()
	return func() {
		end := readGoCounters()
		c.gcCPU += end.gcCPU - start.gcCPU
		c.usedCPU += end.usedCPU - start.usedCPU
		c.allocBytes += end.allocBytes - start.allocBytes
	}
}

// peakRSSMiB reads the process's high-water resident set (VmHWM). Off
// Linux it falls back to the Go runtime's total obtained memory.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sampleRSS samples the process's resident set size every 10 ms until the
// returned function is called. That function returns, in MiB, the largest
// sample of each whole second, or of the part-second sampled if it was
// shorter. The median of these per-second peaks is steadier than the
// overall peak, which depends on where garbage collections fall.
func sampleRSS() func() []float64 {
	stop, done := make(chan struct{}), make(chan []float64)
	go func() {
		var peaks []float64
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		second := time.Now().Add(time.Second)
		for {
			peak = math.Max(peak, rssMiB())
			if time.Now().After(second) {
				peaks = append(peaks, peak)
				peak, second = 0, second.Add(time.Second)
			}
			select {
			case <-tick.C:
			case <-stop:
				if len(peaks) == 0 {
					peaks = append(peaks, peak)
				}
				done <- peaks
				return
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// resetPeakRSS returns the memory set-up left behind to the system and
// restarts the process's high-water mark (VmHWM) from what remains, so
// that peakRSSMiB reads the peak of the timed phase. Where the kernel does
// not allow the restart, the peak includes set-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssMiB reads the resident set size from /proc/self/statm. Off Linux it
// falls back to the memory the Go runtime has mapped.
func rssMiB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
