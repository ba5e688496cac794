package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/embcache"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/obs"
	"betty/internal/serve"
	"betty/internal/store"
	"betty/internal/tensor"
)

// workload is one benchmark configuration. Every workload trains a model
// the way bettytrain (or bettyserve's warm-up) would with no BETTY_*
// variable set, then serves it with serve.Defaults(); the workloads differ
// in the data, the memory regime and the traffic, which is what moves
// work between layers.
type workload struct {
	name    string
	dataset string
	// outOfCore reads features from a packed store through a shard cache
	// whose budget is storeBudgetDiv-th of the feature bytes.
	outOfCore bool
	// deviceMiB is the simulated training device; 0 trains without one,
	// as bettyserve's warm-up epochs do.
	deviceMiB int64
	// embCache attaches bettytrain's default exact-mode embedding cache
	// to training (bettyserve's warm-up training has none).
	embCache bool
	// adaptive plans with bettytrain -adaptive's learned safety margin.
	// Without it the estimator's ~1% underestimate of the activation
	// peak makes a K whose estimate lands within 1% of the device run
	// out of memory (ogbn-products seed 3 at 8 MiB picks K=16 and fails).
	adaptive bool
	// refDeviceMiB, when set, is the device of an in-RAM reference
	// training over the same data that must reach the identical test
	// accuracy.
	refDeviceMiB int64
	// load is the serving traffic.
	load loadSpec
}

// serveRate is every workload's Poisson arrival rate, about a sixth of
// what one closed-loop client sustains on a 2-CPU host. At 60 req/s the
// queueing it adds amplified the host's speed drift: the median latency
// of ten runs spread by 10% to 29% of itself, against 4% to 7% at 20 to
// 30 req/s.
const serveRate = 30

// The model and optimizer every workload trains: GraphSAGE-mean, 2
// layers, hidden 64, fanouts 5,10, Adam 0.01 (bettytrain's defaults).
var fanouts = []int{5, 10}

const (
	hidden         = 64
	learningRate   = 0.01
	storeBudgetDiv = 10
	// accEpochs is the epoch after which the weights are scored: a fixed
	// count, so test_acc does not depend on how fast the host trains.
	// By epoch 5 accuracy has levelled off, so it varies across seeds by
	// about 1% instead of the 4% it varies at epoch 3.
	accEpochs = 5
	// refEpochs is the epoch at which the reference check compares
	// accuracies. Micro-batches sum gradients in another order than one
	// full batch, so the weights differ in their last bits; by epoch 5
	// that flips a prediction on some seeds (seed 17: one test node of
	// 54,000), while at epoch 3 every seed tried scores identically.
	refEpochs = 3
	// sloLimit is the serving latency limit of serve_slo_frac.
	sloLimit = 25 * time.Millisecond
	// serveWarmup is untimed open-loop traffic that fills the serving
	// caches before the measured window.
	serveWarmup = time.Second
	// probeRequests is how many measured requests are replayed alone.
	probeRequests = 16
)

var workloads = []workload{
	{
		name:      "train-fit",
		dataset:   "ogbn-products",
		deviceMiB: 128,
		embCache:  true,
		load:      loadSpec{Rate: serveRate, NodesPerRequest: 8, Skew: 1},
	},
	{
		name:         "train-ooc-tight",
		dataset:      "ogbn-products",
		outOfCore:    true,
		deviceMiB:    8,
		embCache:     true,
		adaptive:     true,
		refDeviceMiB: 128,
		load:         loadSpec{Rate: serveRate, NodesPerRequest: 8, Skew: 1},
	},
	{
		name:    "serve-skewed",
		dataset: "ogbn-arxiv",
		load:    loadSpec{Rate: serveRate, NodesPerRequest: 8, Skew: 3},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generate builds the workload's dataset from the registry configuration
// with the benchmark seed in place of the registry's fixed one.
func generate(name string, seed uint64) (*dataset.Dataset, error) {
	cfg, err := dataset.Config(name)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	return dataset.Generate(cfg)
}

// buildTrainer assembles model, optimizer, device and engine the way
// bettytrain does.
func buildTrainer(ds *dataset.Dataset, seed uint64, deviceMiB int64, emb, adaptive bool) (*core.Setup, error) {
	opts := core.Options{
		Hidden:     hidden,
		Fanouts:    fanouts,
		LR:         learningRate,
		Seed:       seed,
		Aggregator: nn.Mean,
	}
	if deviceMiB > 0 {
		opts.Device = device.New(deviceMiB*device.MiB, device.DefaultCostModel())
	}
	s, err := core.BuildSAGE(ds, opts)
	if err != nil {
		return nil, err
	}
	if emb {
		c, err := embcache.New(embcache.Config{Mode: embcache.ModeExact, BudgetBytes: 64 * device.MiB, MaxLag: 1})
		if err != nil {
			return nil, err
		}
		s.Runner.Emb = c
	}
	if adaptive {
		s.Engine.Tracker = memory.NewErrorTracker()
	}
	return s, nil
}

// serveConfig is bettyserve's configuration with no BETTY_* variable set.
func serveConfig(seed uint64, reg *obs.Registry) serve.Config {
	cfg := serve.Defaults()
	cfg.Fanouts = fanouts
	cfg.Seed = seed
	cfg.Obs = reg
	return cfg
}

// rig holds one workload's inputs across the phases of a run.
type rig struct {
	w    workload
	seed uint64
	ds   *dataset.Dataset
	// st, cache, budget and storePath are set for out-of-core workloads.
	st        *store.Store
	cache     *store.Cache
	budget    int64
	storePath string
	// packMS is the one-off store.Pack time, kept out of setup_s.
	packMS float64
}

// close releases the store and removes its file.
func (r *rig) close() {
	if r.st != nil {
		r.st.Close()
	}
	if r.storePath != "" {
		os.Remove(r.storePath)
	}
}

// pack generates the dataset and writes it as a store under dir: what a
// user does once with bettytrain -pack. The in-RAM copy is dropped.
func (r *rig) pack(dir string) error {
	ds, err := generate(r.w.dataset, r.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.storePath = filepath.Join(dir, fmt.Sprintf("%s-%d-%d.store", r.w.name, r.seed, os.Getpid()))
	t0 := time.Now()
	if err := store.Pack(r.storePath, ds, store.PackConfig{}); err != nil {
		return err
	}
	r.packMS = msSince(t0)
	// Flush the packed file now, so its write-back does not run during
	// the measured windows.
	f, err := os.Open(r.storePath)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// setupOnce loads the data (generation, or store open behind a fresh
// cache), builds the trainer and starts a server, and returns the time
// that took. The loaded dataset replaces the rig's previous one.
func (r *rig) setupOnce() (time.Duration, error) {
	t0 := time.Now()
	if r.w.outOfCore {
		st, err := store.Open(r.storePath)
		if err != nil {
			return 0, err
		}
		budget := st.FeatureBytes() / storeBudgetDiv
		cache, err := store.NewCache(st, budget, nil)
		if err != nil {
			st.Close()
			return 0, err
		}
		ds, err := st.Dataset(cache)
		if err != nil {
			st.Close()
			return 0, err
		}
		if r.st != nil {
			r.st.Close()
		}
		r.st, r.cache, r.budget, r.ds = st, cache, budget, ds
	} else {
		ds, err := generate(r.w.dataset, r.seed)
		if err != nil {
			return 0, err
		}
		r.ds = ds
	}
	s, err := buildTrainer(r.ds, r.seed, r.w.deviceMiB, r.w.embCache, r.w.adaptive)
	if err != nil {
		return 0, err
	}
	srv, err := serve.New(r.ds, s.Model, serveConfig(r.seed, obs.New(obs.RealClock())))
	if err != nil {
		return 0, err
	}
	srv.Start()
	elapsed := time.Since(t0)
	return elapsed, srv.Close()
}

// inRAMFeatures reads every feature row through the dataset's source: the
// dense matrix layer-wise inference needs.
func inRAMFeatures(ds *dataset.Dataset) (*tensor.Tensor, error) {
	if ds.Features != nil {
		return ds.Features, nil
	}
	all := make([]int32, ds.Graph.NumNodes())
	for i := range all {
		all[i] = int32(i)
	}
	return ds.GatherFeatures(all)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
