package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// median returns the median of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule: the smallest value with at least p% of
// the samples at or below it. It panics on an empty slice.
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// heapObjectsMetric is the runtime's count of bytes in heap objects, live
// or not yet swept: the Go heap in use.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// heapSampler records the peak Go heap in use while it runs. Sampling is
// a runtime/metrics read, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

// startHeapSampler samples the heap every interval until Stop.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// Stop ends sampling, waits for the sampling goroutine to exit, and
// returns the peak heap in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}
