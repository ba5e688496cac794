package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"betty/internal/dataset"
	"betty/internal/obs"
	"betty/internal/serve"
)

// serveResult is one serving phase: the measured window's accounting, the
// cache ledger it ran against, and (traced runs) its layer metrics.
type serveResult struct {
	load      loadSummary
	heapPeak  uint64
	ledgerPk  int64
	ledgerCap int64
	// probeErr is the first probe replay that disagreed with the scores
	// its request got under load.
	probeErr error
	layers   map[string]float64
}

// serveCounters are the program's published serving counters.
type serveCounters struct {
	stats        serve.Stats
	computedRows int64
}

func readCounters(srv *serve.Server, reg *obs.Registry) serveCounters {
	return serveCounters{stats: srv.StatsSnapshot(), computedRows: reg.CounterValue("embcache.computed_rows")}
}

// servePhase starts a server over the model with bettyserve's default
// configuration, warms its caches with untimed traffic, measures one
// open-loop window of seconds, then replays a probe of measured requests
// one at a time. With tr set, the server records its spans and the phase
// derives the serving layer metrics from them.
func servePhase(ds *dataset.Dataset, model any, w workload, seed uint64, seconds float64, tr *tracer) (serveResult, error) {
	var res serveResult
	reg := obs.New(obs.RealClock())
	reg.SetTracing(tr != nil)
	srv, err := serve.New(ds, model, serveConfig(seed, reg))
	if err != nil {
		return res, err
	}
	srv.Start()
	defer srv.Close()

	// Collect what earlier phases left on the heap, so the window pays
	// only for the garbage serving itself makes.
	runtime.GC()
	n := int(ds.Graph.NumNodes())
	runOpenLoop(srv, makeSchedule(seed^0x5741524d, w.load, serveWarmup, n))
	sched := makeSchedule(seed, w.load, time.Duration(seconds*float64(time.Second)), n)
	if len(sched.Due) == 0 {
		return res, fmt.Errorf("empty serving schedule")
	}

	before := readCounters(srv, reg)
	root := 0
	if tr != nil {
		root = tr.start("serve.window", 0)
	}
	heap := startHeapSampler(10 * time.Millisecond)
	outs := runOpenLoop(srv, sched)
	res.heapPeak = heap.Stop()
	if tr != nil {
		tr.end(root)
	}
	after := readCounters(srv, reg)
	res.load = summarize(outs, sloLimit)
	res.probeErr = replayProbe(srv, sched, outs)
	res.ledgerPk, _ = reg.GaugeValue("serve.cache_ledger_peak_bytes")
	res.ledgerCap, _ = reg.GaugeValue("serve.cache_ledger_capacity_bytes")
	if tr != nil {
		res.layers = serveLayers(tr, root, reg.Spans(), outs, before, after, res.load)
	}
	return res, nil
}

// replayProbe sends up to probeRequests of the measured requests again,
// one at a time, and requires bitwise the scores they got under load.
func replayProbe(srv *serve.Server, s schedule, outs []outcome) error {
	var ok []int
	for i, o := range outs {
		if o.Err == nil {
			ok = append(ok, i)
		}
	}
	step := max(1, len(ok)/probeRequests)
	for j := 0; j < len(ok); j += step {
		i := ok[j]
		scores, err := srv.Predict(s.Nodes[i], 0)
		if err != nil {
			return fmt.Errorf("probe request %d: %w", i, err)
		}
		if !sameScores(scores, outs[i].Scores) {
			return fmt.Errorf("probe request %d: scores alone differ from scores under load", i)
		}
	}
	return nil
}

func sameScores(a, b [][]float32) bool {
	return slices.EqualFunc(a, b, func(x, y []float32) bool {
		return slices.EqualFunc(x, y, func(p, q float32) bool { return math.Float32bits(p) == math.Float32bits(q) })
	})
}

// serveLayers imports the server's batch spans under the window span,
// parents the per-stage spans under the batch that contains them, and
// derives the serving layer metrics.
func serveLayers(tr *tracer, root int, recs []obs.SpanRecord, outs []outcome, before, after serveCounters, load loadSummary) map[string]float64 {
	window := tr.snapshot()[root-1]
	type batch struct {
		id         int
		start, end int64
	}
	var batches []batch
	for _, r := range recs {
		if r.Phase == obs.PhaseBatch && r.StartNS >= window.StartNS && r.StartNS <= window.EndNS {
			end := r.StartNS + r.DurNS
			batches = append(batches, batch{tr.add("serve.batch", root, r.StartNS, end), r.StartNS, end})
		}
	}
	slices.SortFunc(batches, func(a, b batch) int { return cmp.Compare(a.start, b.start) })
	for _, r := range recs {
		if r.Phase == obs.PhaseBatch || r.StartNS < window.StartNS || r.StartNS > window.EndNS {
			continue
		}
		parent := root
		for _, b := range batches {
			if b.start <= r.StartNS && r.StartNS+r.DurNS <= b.end {
				parent = b.id
				break
			}
		}
		tr.add("serve."+r.Phase, parent, r.StartNS, r.StartNS+r.DurNS)
	}

	// A request waits from its send until the first batch that starts
	// after it: the batcher only pulls queued requests when it is idle.
	var waits, batchMS []float64
	for _, b := range batches {
		batchMS = append(batchMS, float64(b.end-b.start)/1e6)
	}
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		i, _ := slices.BinarySearchFunc(batches, o.SentNS, func(b batch, t int64) int { return cmp.Compare(b.start, t) })
		if i < len(batches) {
			waits = append(waits, float64(batches[i].start-o.SentNS)/1e6)
		}
	}
	slices.Sort(waits)

	d := func(a, b int64) float64 { return float64(a - b) }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	sa, sb := after.stats, before.stats
	featHits, featMiss := d(sa.CacheHits, sb.CacheHits), d(sa.CacheMisses, sb.CacheMisses)
	embHits, embMiss := d(sa.EmbHits, sb.EmbHits), d(sa.EmbMisses, sb.EmbMisses)
	m := map[string]float64{
		"serve.batch_ms":               median(batchMS),
		"serve.req_per_batch":          frac(d(sa.BatchedRequests, sb.BatchedRequests), d(sa.Batches, sb.Batches)),
		"serve.rejected.queue_full":    float64(load.Failed["queue_full"]),
		"serve.rejected.deadline":      float64(load.Failed["deadline"]),
		"serve.rejected.other":         float64(load.Failed["other"]),
		"serve.feat_cache_hit_frac":    frac(featHits, featHits+featMiss),
		"embcache.hit_frac":            frac(embHits, embHits+embMiss),
		"embcache.layer1_rows_per_req": frac(d(after.computedRows, before.computedRows), float64(load.OK)),
		"loadgen.late_ms":              load.LateMaxMS,
		"serve.e2e_p99_ms":             load.P99MS,
		"serve.queue_wait_p50_ms":      0,
		"serve.queue_wait_p99_ms":      0,
	}
	if len(waits) > 0 {
		m["serve.queue_wait_p50_ms"] = nearestRank(waits, 50)
		m["serve.queue_wait_p99_ms"] = nearestRank(waits, 99)
	}
	return m
}
