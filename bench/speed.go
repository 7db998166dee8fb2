package main

import (
	"math/rand"
	"sync"
	"time"
)

// The benchmark runs on virtual machines whose cores and caches are shared
// with other tenants. Their load changes how fast the same code runs from
// minute to minute: on the 2-vCPU VM the bounds were set on, one table3
// pass took from 2.3 to 5.0 s with identical work. So every time and rate
// is reported at a fixed reference machine speed: the measured value is
// scaled by refNsPerStep over the speed of a probe measured alongside the
// work. The probe is a pointer chase around a 256 KiB ring that starts out
// of L2 (a 4 MiB read evicts it first), so like the BDD code it pays for
// both core and cache speed. It is the benchmark's own code, so a change to
// the program under test cannot move it; the raw values stay in info.

const (
	probeEntries = 64 << 10 // int32 entries: 256 KiB, the size of L2 or less
	probeSteps   = 100_000
	evictBytes   = 4 << 20
	// refNsPerStep is the probe's typical speed on that VM, so reported
	// times read close to what it measures on an ordinary stretch.
	refNsPerStep = 6.0
)

// prober times a pointer chase around a fixed random cycle.
type prober struct {
	ring  []int32
	evict []int64

	mu      sync.Mutex
	sink    int64
	samples []float64 // ns per step
}

func newProber() *prober {
	perm := rand.New(rand.NewSource(1)).Perm(probeEntries)
	ring := make([]int32, probeEntries)
	for i, p := range perm {
		ring[p] = int32(perm[(i+1)%len(perm)])
	}
	return &prober{ring: ring, evict: make([]int64, evictBytes/8)}
}

// probe evicts the ring from L2, then times probeSteps steps around it; it
// records and returns ns per step.
func (p *prober) probe() float64 {
	var s int64
	for i := 0; i < len(p.evict); i += 8 { // one read per 64-byte line
		s += p.evict[i]
	}
	j := int32(s) & (probeEntries - 1)
	t0 := time.Now()
	for i := 0; i < probeSteps; i++ {
		j = p.ring[j]
	}
	ns := float64(time.Since(t0)) / probeSteps
	p.mu.Lock()
	p.sink += int64(j)
	p.samples = append(p.samples, ns)
	p.mu.Unlock()
	return ns
}

// every probes every interval on a goroutine of its own until the returned
// function is called, which waits for that goroutine to end.
func (p *prober) every(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			p.probe()
			select {
			case <-tick.C:
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// take returns the scale of the samples recorded since the last take (see
// scale) and starts a new set.
func (p *prober) take() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := scale(p.samples)
	p.samples = nil
	return f
}

// scale is the factor that takes a time measured while samples were taken
// to the reference speed: refNsPerStep over their median.
func scale(samples []float64) float64 {
	return refNsPerStep / quantile(samples, 0.5)
}
