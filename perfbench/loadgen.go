package main

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"betty/internal/serve"
)

// schedule is a seeded open-loop request trace: request i is due at Due[i]
// after the load starts and asks for the scores of Nodes[i].
type schedule struct {
	Due   []time.Duration
	Nodes [][]int32
}

// loadSpec fixes the shape of a serving workload's traffic.
type loadSpec struct {
	// Rate is the mean arrival rate in requests per second (Poisson).
	Rate float64
	// NodesPerRequest is the number of seed nodes each request scores.
	NodesPerRequest int
	// Skew shapes node popularity: a node of popularity rank r (0 = most
	// popular) is drawn with rank floor(n * u^Skew) for uniform u, so 1 is
	// uniform and larger values concentrate traffic on a hot set.
	Skew float64
}

// makeSchedule draws the requests due in [0, dur) over a graph of numNodes
// nodes. The same seed always gives the same schedule; which nodes are hot
// is itself drawn from the seed.
func makeSchedule(seed uint64, spec loadSpec, dur time.Duration, numNodes int) schedule {
	r := rand.New(rand.NewPCG(seed, 0x6c6f6164))
	rank := r.Perm(numNodes)
	var s schedule
	var at time.Duration
	for {
		at += time.Duration(r.ExpFloat64() / spec.Rate * float64(time.Second))
		if at >= dur {
			return s
		}
		nodes := make([]int32, spec.NodesPerRequest)
		for j := range nodes {
			idx := int(float64(numNodes) * math.Pow(r.Float64(), spec.Skew))
			nodes[j] = int32(rank[min(idx, numNodes-1)])
		}
		s.Due = append(s.Due, at)
		s.Nodes = append(s.Nodes, nodes)
	}
}

// outcome is what one request of the schedule saw.
type outcome struct {
	// LatencyNS runs from the request's due time to its response, so a
	// stall also charges the requests that were due while it lasted.
	LatencyNS int64
	// LateNS is how long after its due time the generator sent it, and
	// SentNS the wall clock (Unix ns) at which it did.
	LateNS, SentNS int64
	Err            error
	Scores         [][]float32
}

// predictor is the part of serve.Server the generator drives.
type predictor interface {
	Predict(nodes []int32, timeout time.Duration) ([][]float32, error)
}

// runOpenLoop sends every request of s at its due time from one sender,
// whatever the state of earlier requests, and returns once all have
// finished. Each request waits in its own goroutine; the server's bounded
// queue and per-request deadline bound how many wait at once.
func runOpenLoop(p predictor, s schedule) []outcome {
	outs := make([]outcome, len(s.Due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range s.Due {
		time.Sleep(time.Until(start.Add(due)))
		sent := time.Now()
		outs[i].LateNS = int64(sent.Sub(start) - due)
		outs[i].SentNS = sent.UnixNano()
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			scores, err := p.Predict(s.Nodes[i], -1)
			outs[i].LatencyNS = int64(time.Since(start) - due)
			outs[i].Err = err
			outs[i].Scores = scores
		}(i, due)
	}
	wg.Wait()
	return outs
}

// errorClass names a failed request's cause.
func errorClass(err error) string {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, serve.ErrDeadlineExceeded):
		return "deadline"
	default:
		return "other"
	}
}

// loadSummary is the accounting of one measured window.
type loadSummary struct {
	Attempted, OK int
	// Failed counts failures by errorClass.
	Failed map[string]int
	// P50MS and P99MS rank failures as slower than every success; a
	// percentile that lands on a failure reads failPenaltyMS.
	P50MS, P99MS float64
	// SLOFrac is the share of attempted requests that succeeded within
	// the latency limit; OKFrac the share that succeeded at all.
	SLOFrac, OKFrac float64
	// LateMaxMS is the generator's worst lateness.
	LateMaxMS float64
}

// failPenaltyMS is what a percentile reads when it falls on a failed
// request: the serving default deadline, or the slowest success if that
// is slower.
const failPenaltyMS = 1000.0

// summarize accounts for the outcomes against a latency limit.
func summarize(outs []outcome, slo time.Duration) loadSummary {
	sum := loadSummary{Attempted: len(outs), Failed: map[string]int{}}
	if len(outs) == 0 {
		return sum
	}
	lats := make([]float64, 0, len(outs))
	withinSLO := 0
	slowestOK := 0.0
	for _, o := range outs {
		sum.LateMaxMS = max(sum.LateMaxMS, float64(o.LateNS)/1e6)
		if o.Err != nil {
			sum.Failed[errorClass(o.Err)]++
			continue
		}
		sum.OK++
		ms := float64(o.LatencyNS) / 1e6
		slowestOK = max(slowestOK, ms)
		lats = append(lats, ms)
		if o.LatencyNS <= slo.Nanoseconds() {
			withinSLO++
		}
	}
	slices.Sort(lats)
	penalty := max(failPenaltyMS, slowestOK)
	for range len(outs) - sum.OK {
		lats = append(lats, penalty)
	}
	sum.P50MS = nearestRank(lats, 50)
	sum.P99MS = nearestRank(lats, 99)
	sum.SLOFrac = float64(withinSLO) / float64(len(outs))
	sum.OKFrac = float64(sum.OK) / float64(len(outs))
	return sum
}
