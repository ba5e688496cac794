package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"betty/internal/core"
	"betty/internal/dataset"
	"betty/internal/graph"
	"betty/internal/reg"
	"betty/internal/tensor"
)

// epochRecord is what one training epoch produced.
type epochRecord struct {
	K        int
	Loss     float64
	Seconds  float64
	PeakB    int64
	MaxEstB  int64
	Attempts int
}

// trainResult is one pass of training epochs.
type trainResult struct {
	// epochs holds every epoch, the untimed warm-up first.
	epochs []epochRecord
	// snapshot is the weights after accEpochs epochs, refSnapshot after
	// refEpochs.
	snapshot, refSnapshot [][]float32
}

// timedSeconds returns the wall times of the epochs after the warm-up.
func (t trainResult) timedSeconds() []float64 {
	var out []float64
	for _, e := range t.epochs[1:] {
		out = append(out, e.Seconds)
	}
	return out
}

// sameTraining reports the first epoch at which two passes differ in K or
// in the loss's bits.
func sameTraining(a, b trainResult) error {
	if len(a.epochs) != len(b.epochs) {
		return fmt.Errorf("%d epochs vs %d", len(a.epochs), len(b.epochs))
	}
	for i := range a.epochs {
		ea, eb := a.epochs[i], b.epochs[i]
		if ea.K != eb.K || math.Float64bits(ea.Loss) != math.Float64bits(eb.Loss) {
			return fmt.Errorf("epoch %d: K=%d loss=%v vs K=%d loss=%v", i+1, ea.K, ea.Loss, eb.K, eb.Loss)
		}
	}
	return nil
}

// params returns the model's parameters.
func params(m any) []*tensor.Var {
	return m.(interface{ Params() []*tensor.Var }).Params()
}

func snapshotWeights(m any) [][]float32 {
	var out [][]float32
	for _, p := range params(m) {
		out = append(out, slices.Clone(p.Value.Data))
	}
	return out
}

// trainEpochs runs epochs through epochFn: one untimed warm-up, then timed
// epochs until the window has lasted seconds and at least accEpochs have
// run, or exactly fixed epochs in all when fixed > 0. onWindow, when set,
// is called as the timed window opens.
func trainEpochs(m any, seconds float64, fixed int, epochFn func() (epochRecord, error), onWindow func()) (trainResult, error) {
	var res trainResult
	var windowStart time.Time
	for e := 1; ; e++ {
		if e == 2 {
			if onWindow != nil {
				onWindow()
			}
			windowStart = time.Now()
		}
		t0 := time.Now()
		rec, err := epochFn()
		if err != nil {
			return res, fmt.Errorf("epoch %d: %w", e, err)
		}
		rec.Seconds = time.Since(t0).Seconds()
		res.epochs = append(res.epochs, rec)
		if e == refEpochs {
			res.refSnapshot = snapshotWeights(m)
		}
		if e == accEpochs {
			res.snapshot = snapshotWeights(m)
		}
		if fixed > 0 {
			if e == fixed {
				return res, nil
			}
			continue
		}
		if e >= accEpochs && time.Since(windowStart).Seconds() >= seconds {
			return res, nil
		}
	}
}

// untracedEpoch is the program's own epoch, bettytrain's loop body.
func untracedEpoch(s *core.Setup) func() (epochRecord, error) {
	return func() (epochRecord, error) {
		st, err := s.Engine.TrainEpochMicro()
		return epochRecord{K: st.K, Loss: st.Loss, PeakB: st.PeakBytes, MaxEstB: st.MaxEstimate, Attempts: st.PlanAttempts}, err
	}
}

// modelWith builds a model holding the given weights: the scored and
// served model, independent of how many epochs the window ran.
func modelWith(ds *dataset.Dataset, seed uint64, weights [][]float32) (any, error) {
	s, err := buildTrainer(ds, seed, 0, false, false)
	if err != nil {
		return nil, err
	}
	return s.Model, loadWeights(s.Model, weights)
}

// accuracy scores the given weights on the full test split with
// deterministic full-neighbour inference.
func accuracy(ds *dataset.Dataset, feats *tensor.Tensor, seed uint64, weights [][]float32) (float64, error) {
	m, err := modelWith(ds, seed, weights)
	if err != nil {
		return 0, err
	}
	return core.InferAccuracy(m, ds.Graph, feats, ds.Labels, ds.TestIdx, 0)
}

func loadWeights(m any, weights [][]float32) error {
	ps := params(m)
	if len(ps) != len(weights) {
		return fmt.Errorf("%d weight tensors for %d parameters", len(weights), len(ps))
	}
	for i, p := range ps {
		if len(p.Value.Data) != len(weights[i]) {
			return fmt.Errorf("parameter %d: %d values for %d", i, len(weights[i]), len(p.Value.Data))
		}
		copy(p.Value.Data, weights[i])
	}
	return nil
}

// presampled hands PlanEpoch a frontier the benchmark sampled itself, so
// sampling and planning are timed as separate calls.
type presampled struct{ blocks []*graph.Block }

func (p presampled) Load([]int32) ([]*graph.Block, bool, error) { return p.blocks, true, nil }
func (presampled) Save([]int32, []*graph.Block) error           { return nil }

// timedPartitioner records one span per PartitionBatch call.
type timedPartitioner struct {
	inner reg.BatchPartitioner
	tr    *tracer
}

func (p timedPartitioner) Name() string { return p.inner.Name() }

func (p timedPartitioner) PartitionBatch(last *graph.Block, k int) ([][]int32, error) {
	id := p.tr.startUnderCurrent("partition")
	defer p.tr.end(id)
	return p.inner.PartitionBatch(last, k)
}

// timedSource records one span per batch feature gather.
type timedSource struct {
	dataset.FeatureSource
	tr *tracer
}

func (s timedSource) GatherInto(out *tensor.Tensor, nids []int32) error {
	id := s.tr.startUnderCurrent("gather")
	defer s.tr.end(id)
	return s.FeatureSource.GatherInto(out, nids)
}

// epochLayers is the per-epoch bookkeeping of a traced epoch that spans
// do not carry.
type epochLayers struct {
	redundancyFrac float64
	h2dBytes       int64
}

// tracedEpoch drives one epoch through the engine's public entry points,
// with a span around each call: Sampler.Sample, Engine.PlanEpoch (with
// the partitioner wrapped), Runner.RunMicroBatch per micro-batch (with
// the feature source wrapped, and the measured peak fed to the adaptive
// margin's tracker) and Runner.Step. It performs the same
// operations in the same order as Engine.TrainEpochMicro, which the run
// checks by comparing K, every loss and test_acc with the untraced pass.
func tracedEpoch(s *core.Setup, tr *tracer, layers *[]epochLayers) func() (epochRecord, error) {
	return func() (epochRecord, error) {
		var rec epochRecord
		eng, r := s.Engine, s.Runner
		seeds := r.Data.TrainIdx
		var h2d0 int64
		if r.Dev != nil {
			h2d0 = r.Dev.BytesTransferred()
		}
		ep := tr.start("epoch", 0)
		defer tr.end(ep)

		sp := tr.start("sample", ep)
		full, err := eng.Sampler.Sample(r.Data.Graph, seeds)
		tr.end(sp)
		if err != nil {
			return rec, err
		}

		pl := tr.start("plan", ep)
		tr.setCurrent(pl)
		eng.Frontiers = presampled{full}
		_, plan, err := eng.PlanEpoch(seeds)
		eng.Frontiers = nil
		tr.end(pl)
		if err != nil {
			return rec, err
		}
		rec.K, rec.Attempts, rec.MaxEstB = plan.K, plan.Attempts, plan.MaxPeak

		rd := tr.start("redundancy", ep)
		redundancy := plan.Redundancy(full)
		tr.end(rd)

		labels := r.Data.Labels
		labeledPer := make([]int, len(plan.Micro))
		totalLabeled := 0
		for i, mb := range plan.Micro {
			for _, nid := range mb[len(mb)-1].DstNID {
				if labels[nid] >= 0 {
					labeledPer[i]++
				}
			}
			totalLabeled += labeledPer[i]
		}
		for i, micro := range plan.Micro {
			if r.Dev != nil {
				r.Dev.ResetPeak()
			}
			var scale float32
			if totalLabeled > 0 {
				scale = float32(labeledPer[i]) / float32(totalLabeled)
			}
			mb := tr.start("micro", ep)
			tr.setCurrent(mb)
			res, err := r.RunMicroBatch(micro, scale)
			tr.end(mb)
			if err != nil {
				return rec, err
			}
			if totalLabeled > 0 {
				rec.Loss += res.Loss * float64(labeledPer[i]) / float64(totalLabeled)
			}
			rec.PeakB = max(rec.PeakB, res.PeakBytes)
			if eng.Tracker != nil && res.PeakBytes > 0 {
				eng.Tracker.Observe(plan.Estimates[i].Peak(), res.PeakBytes)
			}
		}
		tr.setCurrent(0)

		st := tr.start("step", ep)
		r.Step()
		tr.end(st)

		l := epochLayers{redundancyFrac: float64(redundancy) / float64(full[0].NumSrc)}
		if r.Dev != nil {
			l.h2dBytes = r.Dev.BytesTransferred() - h2d0
		}
		*layers = append(*layers, l)
		return rec, nil
	}
}

// finiteLosses checks every epoch's loss.
func finiteLosses(t trainResult) error {
	for i, e := range t.epochs {
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
			return fmt.Errorf("epoch %d loss %v", i+1, e.Loss)
		}
	}
	return nil
}
