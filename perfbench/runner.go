package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"betty/internal/dataset"
	"betty/internal/device"
	"betty/internal/obs"
	"betty/internal/store"
	"betty/internal/tensor"
)

// outDir holds the files a run writes (packed stores, traces) inside the
// checkout's build directory.
var outDir = filepath.Join(".bench_build", "perfbench")

const mib = float64(device.MiB)

// runWorkload performs one run: set-up, the training window, scoring, the
// serving window and the checks, plus the traced replay when trace is set.
func runWorkload(w workload, seed uint64, seconds float64, trace bool, log io.Writer) (result, fingerprint, error) {
	var res result
	r := &rig{w: w, seed: seed}
	defer r.close()
	if w.outOfCore {
		if err := r.pack(outDir); err != nil {
			return res, fingerprint{}, fmt.Errorf("packing the store: %w", err)
		}
	}

	// Set-up is repeated and its median reported, so one slow repetition
	// cannot move setup_s.
	reps := 3
	if w.outOfCore {
		reps = 5
	}
	var setupS []float64
	for range reps {
		d, err := r.setupOnce()
		if err != nil {
			return res, fingerprint{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	fp := newFingerprint(w, seed, trace, r)
	fmt.Fprintf(log, "perfbench: %s seed %d: %s, %d nodes, %d edges, set-up %.3fs\n",
		w.name, seed, fp.Dataset, fp.Nodes, fp.Edges, median(setupS))

	var chk checks
	s, err := buildTrainer(r.ds, seed, w.deviceMiB, w.embCache, w.adaptive)
	if err != nil {
		return res, fp, err
	}
	var heap *heapSampler
	train, err := trainEpochs(s.Model, seconds, 0, untracedEpoch(s), func() { heap = startHeapSampler(10 * time.Millisecond) })
	if err != nil {
		return res, fp, fmt.Errorf("training: %w", err)
	}
	trainHeap := heap.Stop()
	chk.require(finiteLosses(train), "every epoch loss is finite")
	devicePeak := int64(0)
	for _, e := range train.epochs {
		devicePeak = max(devicePeak, e.PeakB)
	}
	if w.deviceMiB > 0 {
		chk.requiref(devicePeak <= w.deviceMiB*device.MiB, "device peak %d B within %d MiB", devicePeak, w.deviceMiB)
	}

	feats, err := inRAMFeatures(r.ds)
	if err != nil {
		return res, fp, err
	}
	acc, err := accuracy(r.ds, feats, seed, train.snapshot)
	if err != nil {
		return res, fp, fmt.Errorf("scoring: %w", err)
	}
	fmt.Fprintf(log, "perfbench: %d epochs, K=%d, test_acc %.6f\n", len(train.epochs), train.epochs[len(train.epochs)-1].K, acc)
	model, err := modelWith(r.ds, seed, train.snapshot)
	if err != nil {
		return res, fp, err
	}

	var layers tracedLayers
	if trace {
		if layers, err = tracedRun(r, train, acc, feats, &chk, log); err != nil {
			return res, fp, err
		}
	} else if w.refDeviceMiB > 0 {
		chk.require(r.checkReference(feats, train.refSnapshot), "test accuracy equals the reference configuration's")
	}
	sv, err := servePhase(r.servingData(feats), model, w, seed, seconds, layers.tr)
	if err != nil {
		return res, fp, fmt.Errorf("serving: %w", err)
	}
	checkServe(&chk, sv)
	r.checkStore(&chk)

	if trace {
		for k, v := range sv.layers {
			layers.metrics[k] = v
		}
		if err := writeTrace(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed)), fp, layers.tr.snapshot()); err != nil {
			return res, fp, fmt.Errorf("writing the trace: %w", err)
		}
		if res.Metrics, err = collect(perLayerMetrics, layers.metrics); err != nil {
			return res, fp, err
		}
		finish(&res, &chk, len(train.epochs)*2, sv.load, log)
		return res, fp, nil
	}
	if w.deviceMiB == 0 {
		// Training without a device: the simulated device ledger in play
		// is the serving cache ledger.
		devicePeak = sv.ledgerPk
	}
	res.Metrics, err = collect(endToEndMetrics, map[string]float64{
		"epoch_s":         median(train.timedSeconds()),
		"peak_device_mib": float64(devicePeak) / mib,
		"host_mem_mib":    float64(max(trainHeap, sv.heapPeak)) / mib,
		"test_acc":        acc,
		"setup_s":         median(setupS),
		"serve_p50_ms":    sv.load.P50MS,
		"serve_slo_frac":  sv.load.SLOFrac,
		"serve_ok_frac":   sv.load.OKFrac,
	})
	if err != nil {
		return res, fp, err
	}
	finish(&res, &chk, len(train.epochs), sv.load, log)
	return res, fp, nil
}

// finish fills the result's accounting: every epoch, request and check is
// an attempted operation; failed requests and failed checks are failures.
func finish(res *result, chk *checks, epochs int, load loadSummary, log io.Writer) {
	res.Attempted = epochs + load.Attempted + chk.run
	res.Failed = load.Attempted - load.OK + len(chk.failed)
	res.Correct = len(chk.failed) == 0
	for _, f := range chk.failed {
		fmt.Fprintln(log, "perfbench: check failed:", f)
	}
	fmt.Fprintf(log, "perfbench: serving %d/%d ok, p50 %.2f ms, p99 %.2f ms; %d checks, %d failed\n",
		load.OK, load.Attempted, load.P50MS, load.P99MS, chk.run, len(chk.failed))
}

func checkServe(chk *checks, sv serveResult) {
	chk.require(sv.probeErr, "probe requests replayed alone score bitwise as under load")
	chk.requiref(sv.ledgerPk <= sv.ledgerCap, "serving cache ledger peak %d B within %d B", sv.ledgerPk, sv.ledgerCap)
}

// servingData is the dataset the serving phase reads. Out-of-core
// workloads serve from the in-RAM matrix: serving gathers one row at a
// time, and through a cache of a tenth of the shards nearly every row
// loads a shard (about 250 ms per request on a 2-CPU host), which no
// useful request rate sustains.
func (r *rig) servingData(feats *tensor.Tensor) *dataset.Dataset {
	if !r.w.outOfCore {
		return r.ds
	}
	ds := *r.ds
	ds.Source, ds.Features = nil, feats
	return &ds
}

// checkStore requires the shard cache to have stayed within its budget.
func (r *rig) checkStore(chk *checks) {
	if r.cache != nil {
		chk.requiref(r.cache.PeakBytes() <= r.budget, "store peak %d B within budget %d B", r.cache.PeakBytes(), r.budget)
	}
}

// checkReference trains the same model in RAM on the reference device for
// refEpochs and requires the test accuracy the given weights (the run's
// own after refEpochs) reach. For train-ooc-tight that is train-fit's
// configuration: K=15..17 out of core must score exactly as K=1 in RAM
// (micro-batch ≡ full batch, out-of-core ≡ in-RAM).
func (r *rig) checkReference(feats *tensor.Tensor, weights [][]float32) error {
	acc, err := accuracy(r.ds, feats, r.seed, weights)
	if err != nil {
		return err
	}
	ref := *r.ds
	ref.Source, ref.Features = nil, feats
	s, err := buildTrainer(&ref, r.seed, r.w.refDeviceMiB, r.w.embCache, false)
	if err != nil {
		return err
	}
	t, err := trainEpochs(s.Model, 0, refEpochs, untracedEpoch(s), nil)
	if err != nil {
		return err
	}
	refAcc, err := accuracy(&ref, feats, r.seed, t.refSnapshot)
	if err != nil {
		return err
	}
	if refAcc != acc {
		return fmt.Errorf("after %d epochs, reference (K=%d) %.6f vs %.6f", refEpochs, t.epochs[len(t.epochs)-1].K, refAcc, acc)
	}
	return nil
}

// tracedLayers is the traced replay's output.
type tracedLayers struct {
	tr      *tracer
	metrics map[string]float64
}

// tracedRun replays the untraced pass's epochs from fresh weights through
// the engine's public entry points with spans, requires identical K,
// losses and test_acc, and derives the training layer metrics.
func tracedRun(r *rig, untraced trainResult, acc float64, feats *tensor.Tensor, chk *checks, log io.Writer) (tracedLayers, error) {
	out := tracedLayers{tr: &tracer{}, metrics: map[string]float64{}}
	tr := out.tr
	s, err := buildTrainer(r.ds, r.seed, r.w.deviceMiB, r.w.embCache, r.w.adaptive)
	if err != nil {
		return out, err
	}
	s.Engine.Partitioner = timedPartitioner{inner: s.Engine.Partitioner, tr: tr}

	// The replay reads features through its own source: for out-of-core
	// workloads a fresh shard cache publishing its counters.
	orig := r.ds.Source
	defer func() { r.ds.Source = orig }()
	src := r.ds.FeatureSource()
	var storeReg *obs.Registry
	var cache *store.Cache
	if r.w.outOfCore {
		storeReg = obs.New(obs.RealClock())
		if cache, err = store.NewCache(r.st, r.budget, storeReg); err != nil {
			return out, err
		}
		src = store.NewFeatures(cache)
	}
	r.ds.Source = timedSource{FeatureSource: src, tr: tr}

	var layers []epochLayers
	var loads, hits []int64
	epoch := tracedEpoch(s, tr, &layers)
	traced, err := trainEpochs(s.Model, 0, len(untraced.epochs), func() (epochRecord, error) {
		l0, h0 := storeReg.CounterValue("store.shard_misses"), storeReg.CounterValue("store.shard_hits")
		rec, err := epoch()
		loads = append(loads, storeReg.CounterValue("store.shard_misses")-l0)
		hits = append(hits, storeReg.CounterValue("store.shard_hits")-h0)
		return rec, err
	}, nil)
	if err != nil {
		return out, fmt.Errorf("traced training: %w", err)
	}
	tacc, err := accuracy(r.ds, feats, r.seed, traced.snapshot)
	if err != nil {
		return out, err
	}
	chk.require(sameTraining(untraced, traced), "traced run reproduces K and every loss")
	chk.requiref(tacc == acc, "traced run reproduces test_acc (%.6f vs %.6f)", tacc, acc)
	if cache != nil {
		chk.requiref(cache.PeakBytes() <= r.budget, "traced store peak %d B within budget %d B", cache.PeakBytes(), r.budget)
	}
	fmt.Fprintf(log, "perfbench: traced replay of %d epochs, test_acc %.6f\n", len(traced.epochs), tacc)

	// Layer metrics are per-epoch medians over the timed epochs (the
	// warm-up epoch is excluded).
	perEpoch := perRoot(tr.snapshot(), "epoch")[1:]
	timed := traced.epochs[1:]
	med := func(f func(i int) float64) float64 {
		var xs []float64
		for i := range timed {
			xs = append(xs, f(i))
		}
		return median(xs)
	}
	selfMS := func(name string) float64 {
		return med(func(i int) float64 { return float64(perEpoch[i].selfNS[name]) / 1e6 })
	}
	calls := func(name string) float64 { return med(func(i int) float64 { return float64(perEpoch[i].calls[name]) }) }
	m := out.metrics
	m["sample.ms"] = selfMS("sample")
	m["reg.partition_ms"] = selfMS("partition")
	m["reg.partition_calls"] = calls("partition")
	m["memory.plan_ms"] = selfMS("plan")
	m["memory.plan_attempts"] = med(func(i int) float64 { return float64(timed[i].Attempts) })
	m["memory.k"] = med(func(i int) float64 { return float64(timed[i].K) })
	m["memory.est_err_frac"] = med(func(i int) float64 {
		if timed[i].PeakB == 0 {
			return 0
		}
		return float64(timed[i].MaxEstB-timed[i].PeakB) / float64(timed[i].PeakB)
	})
	m["graph.redundancy_frac"] = med(func(i int) float64 { return layers[i+1].redundancyFrac })
	m["device.h2d_mib"] = med(func(i int) float64 { return float64(layers[i+1].h2dBytes) / mib })
	m["dataset.gather_ms"] = selfMS("gather")
	m["train.compute_ms"] = selfMS("micro")
	m["train.micro_batches"] = calls("micro")
	m["nn.opt_step_ms"] = selfMS("step")
	m["store.shard_loads"] = med(func(i int) float64 { return float64(loads[i+1]) })
	var sumLoads, sumHits int64
	for i := 1; i < len(loads); i++ {
		sumLoads += loads[i]
		sumHits += hits[i]
	}
	m["store.hit_frac"], m["store.peak_mib"] = 0, 0
	if sumLoads+sumHits > 0 {
		m["store.hit_frac"] = float64(sumHits) / float64(sumLoads+sumHits)
	}
	if cache != nil {
		m["store.peak_mib"] = float64(cache.PeakBytes()) / mib
	}
	m["store.pack_ms"] = r.packMS
	m["trace.overhead_frac"] = median(traced.timedSeconds())/median(untraced.timedSeconds()) - 1
	return out, nil
}

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// collect pairs every listed metric with its value; a missing value is a
// bug in the benchmark, never a silent zero.
func collect(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("no value measured for %s", m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out, nil
}

// endToEndMetrics is the --trace 0 output, in BENCHMARK.json's order.
var endToEndMetrics = []metricSpec{
	{"epoch_s", "s"},
	{"peak_device_mib", "MiB"},
	{"host_mem_mib", "MiB"},
	{"test_acc", "frac"},
	{"setup_s", "s"},
	{"serve_p50_ms", "ms"},
	{"serve_slo_frac", "frac"},
	{"serve_ok_frac", "frac"},
}

// perLayerMetrics is the --trace 1 output, in BENCHMARK.json's order.
var perLayerMetrics = []metricSpec{
	{"sample.ms", "ms"},
	{"reg.partition_ms", "ms"},
	{"reg.partition_calls", "count"},
	{"memory.plan_ms", "ms"},
	{"memory.plan_attempts", "count"},
	{"memory.k", "count"},
	{"memory.est_err_frac", "frac"},
	{"graph.redundancy_frac", "frac"},
	{"device.h2d_mib", "sim_MiB"},
	{"dataset.gather_ms", "ms"},
	{"store.shard_loads", "count"},
	{"store.hit_frac", "frac"},
	{"store.peak_mib", "MiB"},
	{"store.pack_ms", "ms"},
	{"train.compute_ms", "ms"},
	{"train.micro_batches", "count"},
	{"nn.opt_step_ms", "ms"},
	{"serve.e2e_p99_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.batch_ms", "ms"},
	{"serve.req_per_batch", "count"},
	{"serve.rejected.queue_full", "count"},
	{"serve.rejected.deadline", "count"},
	{"serve.rejected.other", "count"},
	{"serve.feat_cache_hit_frac", "frac"},
	{"embcache.hit_frac", "frac"},
	{"embcache.layer1_rows_per_req", "count"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}
