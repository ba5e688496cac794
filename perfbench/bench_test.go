package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"betty/internal/serve"
)

func TestMedianAndNearestRank(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSummarizeCountsFailuresInTheTail(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * 1e6) }
	var outs []outcome
	for i := range 97 {
		outs = append(outs, outcome{LatencyNS: ms(float64(i + 1))})
	}
	outs = append(outs,
		outcome{LatencyNS: ms(2), Err: serve.ErrQueueFull, LateNS: ms(0.5)},
		outcome{LatencyNS: ms(3), Err: fmt.Errorf("wrapped: %w", serve.ErrDeadlineExceeded)},
		outcome{LatencyNS: ms(4), Err: errors.New("boom")},
	)
	sum := summarize(outs, 25*time.Millisecond)
	if sum.Attempted != 100 || sum.OK != 97 {
		t.Fatalf("attempted %d ok %d, want 100 and 97", sum.Attempted, sum.OK)
	}
	for class, want := range map[string]int{"queue_full": 1, "deadline": 1, "other": 1} {
		if sum.Failed[class] != want {
			t.Errorf("failed[%s] = %d, want %d", class, sum.Failed[class], want)
		}
	}
	// Three failures rank above every success: p99 lands on one of them,
	// although each failed faster than most successes.
	if sum.P99MS != failPenaltyMS {
		t.Errorf("p99 = %v, want the failure penalty %v", sum.P99MS, failPenaltyMS)
	}
	if sum.P50MS != 50 {
		t.Errorf("p50 = %v, want 50", sum.P50MS)
	}
	if sum.OKFrac != 0.97 {
		t.Errorf("ok frac = %v, want 0.97", sum.OKFrac)
	}
	// 25 successes are within 25 ms; failures never count.
	if sum.SLOFrac != 0.25 {
		t.Errorf("slo frac = %v, want 0.25", sum.SLOFrac)
	}
	if sum.LateMaxMS != 0.5 {
		t.Errorf("late max = %v, want 0.5", sum.LateMaxMS)
	}
}

func TestFailurePenaltyIsSlowerThanEverySuccess(t *testing.T) {
	outs := []outcome{{LatencyNS: 3e9}, {Err: serve.ErrQueueFull}}
	sum := summarize(outs, time.Second)
	if sum.P99MS != 3000 {
		t.Errorf("p99 = %v, want the 3000 ms of the slowest success", sum.P99MS)
	}
}

// fakeServer answers after a fixed delay, refusing every third request.
type fakeServer struct{ delay time.Duration }

func (f fakeServer) Predict(nodes []int32, _ time.Duration) ([][]float32, error) {
	time.Sleep(f.delay)
	if nodes[0]%3 == 0 {
		return nil, serve.ErrQueueFull
	}
	return [][]float32{{float32(nodes[0])}}, nil
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	s := schedule{
		Due:   []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond},
		Nodes: [][]int32{{1}, {2}, {3}},
	}
	outs := runOpenLoop(fakeServer{delay: 5 * time.Millisecond}, s)
	for i, o := range outs {
		if o.LatencyNS < o.LateNS+int64(5*time.Millisecond) {
			t.Errorf("request %d: latency %d ns below lateness %d plus service", i, o.LatencyNS, o.LateNS)
		}
	}
	if outs[2].Err == nil || outs[0].Err != nil || outs[0].Scores[0][0] != 1 {
		t.Errorf("outcomes not matched to their requests: %+v", outs)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	spec := loadSpec{Rate: 60, NodesPerRequest: 8, Skew: 3}
	a := makeSchedule(7, spec, 10*time.Second, 1000)
	b := makeSchedule(7, spec, 10*time.Second, 1000)
	if !slices.Equal(a.Due, b.Due) || !slices.EqualFunc(a.Nodes, b.Nodes, slices.Equal[[]int32]) {
		t.Fatal("the same seed gave different schedules")
	}
	c := makeSchedule(8, spec, 10*time.Second, 1000)
	if slices.Equal(a.Due, c.Due) {
		t.Error("different seeds gave the same arrival times")
	}
	// Poisson arrivals at 60/s over 10 s: 600 expected, sd ~24.
	if n := len(a.Due); n < 500 || n > 700 {
		t.Errorf("%d requests in 10 s at 60/s", n)
	}
	for i, due := range a.Due {
		if due >= 10*time.Second || (i > 0 && due < a.Due[i-1]) {
			t.Fatalf("due time %d out of order or range: %v", i, due)
		}
	}
	counts := map[int32]int{}
	for _, nodes := range a.Nodes {
		if len(nodes) != 8 {
			t.Fatalf("request with %d nodes", len(nodes))
		}
		for _, v := range nodes {
			if v < 0 || v >= 1000 {
				t.Fatalf("node %d out of range", v)
			}
			counts[v]++
		}
	}
	// Skew 3 puts the top 1% of ranks behind u < 0.01^(1/3), over a fifth
	// of the draws, on at most 10 nodes.
	var top []int
	for _, c := range counts {
		top = append(top, c)
	}
	slices.Sort(top)
	slices.Reverse(top)
	hot := 0
	for _, c := range top[:10] {
		hot += c
	}
	if frac := float64(hot) / float64(8*len(a.Nodes)); frac < 0.15 {
		t.Errorf("10 hottest nodes take %.3f of draws; traffic is not skewed", frac)
	}
}

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "epoch", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "micro", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "micro", StartNS: 20, EndNS: 40}, // overlaps 2
		{ID: 4, Parent: 1, Name: "step", StartNS: 90, EndNS: 120}, // clipped at 100
		{ID: 5, Parent: 2, Name: "gather", StartNS: 12, EndNS: 18},
		{ID: 6, Name: "epoch", StartNS: 200, EndNS: 250},
		{ID: 7, Parent: 6, Name: "micro", StartNS: 210, EndNS: 220},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 60, 2: 14, 3: 20, 4: 30, 5: 6, 6: 40, 7: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	per := perRoot(spans, "epoch")
	if len(per) != 2 {
		t.Fatalf("%d roots, want 2", len(per))
	}
	if per[0].selfNS["micro"] != 34 || per[0].calls["micro"] != 2 || per[0].selfNS["gather"] != 6 {
		t.Errorf("first epoch totals %+v", per[0])
	}
	if per[1].selfNS["micro"] != 10 || per[1].calls["gather"] != 0 {
		t.Errorf("second epoch totals %+v", per[1])
	}
}

func TestTracerParentsWrappedCallsUnderCurrent(t *testing.T) {
	var tr tracer
	ep := tr.start("epoch", 0)
	mb := tr.start("micro", ep)
	tr.setCurrent(mb)
	g := tr.startUnderCurrent("gather")
	tr.end(g)
	tr.end(mb)
	tr.end(ep)
	spans := tr.snapshot()
	if spans[g-1].Parent != mb || spans[mb-1].Parent != ep {
		t.Errorf("parents: %+v", spans)
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestRefusesBettyVariables(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "train-fit", "--seconds", "1"}, []string{"HOME=/x", "BETTY_WORKERS=1"}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d with stdout %q; want a refusal and no result", code, stdout.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("BETTY_WORKERS")) {
		t.Errorf("refusal does not name the variable: %q", stderr.String())
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "train-fit", "--seconds", "0"},
		{"--workload", "train-fit", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, nil, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestSameScoresIsBitwise(t *testing.T) {
	nan := float32(math.NaN())
	a := [][]float32{{1, nan}}
	if !sameScores(a, [][]float32{{1, nan}}) {
		t.Error("identical bits reported different")
	}
	if sameScores([][]float32{{0}}, [][]float32{{float32(math.Copysign(0, -1))}}) {
		t.Error("+0 and -0 reported equal")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricSpec, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s %d: reported %v, BENCHMARK.json has %v", kind, i, want[i], got[i])
			}
		}
	}
	check("end_to_end", endToEndMetrics, doc.EndToEnd)
	check("per_layer", perLayerMetrics, doc.PerLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames(), names)
	}
}

func TestCollectRefusesAMissingMetric(t *testing.T) {
	if _, err := collect([]metricSpec{{"a", "s"}, {"b", "s"}}, map[string]float64{"a": 1}); err == nil {
		t.Error("a metric with no value was reported")
	}
}
