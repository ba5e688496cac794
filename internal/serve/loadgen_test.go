package serve

import (
	"fmt"
	"math"
	"sync"

	"betty/internal/rng"
)

// LoadConfig parameterizes the test load generator: every request is
// issued at once from its own goroutine, so the batcher sees concurrent
// arrivals to coalesce.
type LoadConfig struct {
	// Requests is the total number of requests to issue.
	Requests int
	// NodesPerRequest is the seed-node count of each request.
	NodesPerRequest int
	// Seed drives node selection.
	Seed uint64
	// Skew shapes the node popularity distribution. <= 1 keeps the
	// uniform draw; above 1, node i is drawn with probability density
	// proportional to a power law (idx = n * u^Skew for uniform u), so a
	// small set of hot nodes dominates the trace — the temporal-locality
	// shape the historical-embedding cache's hit rate is measured against.
	Skew float64
}

// LoadReport summarizes one load run.
type LoadReport struct {
	// Errors counts requests Predict answered with an error.
	Errors int
}

// RunLoad drives s with the configured trace and blocks until every
// response (or error) has arrived. The server must be Started. Node
// choices are pure functions of cfg.Seed.
func RunLoad(s *Server, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("serve: load run needs a positive request count")
	}
	if cfg.NodesPerRequest <= 0 {
		cfg.NodesPerRequest = 1
	}
	r := rng.New(cfg.Seed)
	n := int(s.ds.Graph.NumNodes())

	// Pre-draw the whole trace so issuance does no RNG work.
	traces := make([][]int32, cfg.Requests)
	for i := range traces {
		nodes := make([]int32, cfg.NodesPerRequest)
		for j := range nodes {
			if cfg.Skew > 1 {
				idx := int(float64(n) * math.Pow(r.Float64(), cfg.Skew))
				if idx >= n {
					idx = n - 1
				}
				nodes[j] = int32(idx)
			} else {
				nodes[j] = int32(r.Intn(n))
			}
		}
		traces[i] = nodes
	}

	errs := make([]error, cfg.Requests)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Predict(traces[i], 0)
		}(i)
	}
	wg.Wait()

	rep := &LoadReport{}
	for _, err := range errs {
		if err != nil {
			rep.Errors++
		}
	}
	return rep, nil
}
