package memory

import (
	"math"
	"testing"

	"betty/internal/graph"
	"betty/internal/nn"
)

// tinyBlock is the 2-destination, 3-source, 4-edge block every
// hand-computed case below shares as its (last) layer.
func tinyBlock() *graph.Block {
	return &graph.Block{
		NumSrc:   3,
		NumDst:   2,
		Ptr:      []int64{0, 2, 4},
		SrcLocal: []int32{1, 2, 0, 2},
		EID:      []int32{-1, -1, -1, -1},
		SrcNID:   []int32{5, 6, 7},
		DstNID:   []int32{5, 6},
	}
}

// midBlock is a 3-destination, 5-source, 6-edge input layer for the
// two-layer case.
func midBlock() *graph.Block {
	return &graph.Block{
		NumSrc:   5,
		NumDst:   3,
		Ptr:      []int64{0, 2, 4, 6},
		SrcLocal: []int32{3, 4, 0, 2, 1, 4},
		EID:      []int32{-1, -1, -1, -1, -1, -1},
		SrcNID:   []int32{5, 6, 7, 8, 9},
		DstNID:   []int32{5, 6, 7},
	}
}

// TestEstimateComponentsByModel pins every Breakdown component to a byte
// count computed by hand from the §4.4.3 formulas, one case per supported
// architecture and aggregator. The one-layer cases share tinyBlock (N=2
// outputs, S=3 inputs, E=4 edges); the hand arithmetic is spelled out per
// field. SAGE and GCN layers are costed as the fused kernels they run:
// one output per fused kernel, with the inter-layer ReLU folded into the
// fused linear.
func TestEstimateComponentsByModel(t *testing.T) {
	cases := []struct {
		name   string
		blocks []*graph.Block
		spec   Spec
		want   Breakdown
	}{
		{
			// LayerDims(0) of a 1-layer net: f=InDim=10, o=OutDim=4.
			// act = self+concat 3NF(60) + fused linear NO(8) + fused
			//     sum-agg NF(20) = 88 values; Aggregator = 88*4 - Hidden(32).
			name:   "sage-sum-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Sum},
				ParamsGNN:        50,
				OptStatePerParam: 1,
			},
			want: Breakdown{
				Params:        50 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    88*4 - 2*4*4,
				Gradients:     50 * 4,
				OptStates:     50 * 1 * 4,
			},
		},
		{
			// Pool keeps its primitive aggregation — pre-transform 3SF(90)
			// + gathered messages EF(40) + max NF(20) — on top of the shared
			// self+concat 3NF(60) + fused linear NO(8): 218 values.
			name:   "sage-pool-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Pool},
				ParamsGNN:        80,
				ParamsAgg:        30,
				OptStatePerParam: 2,
			},
			want: Breakdown{
				Params:        110 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    218*4 - 2*4*4,
				Gradients:     110 * 4,
				OptStates:     110 * 2 * 4,
			},
		},
		{
			// GCN: source scaling SF(30) + fused normalized sum NF(20) +
			// self slice/scale 2NF(40) + add NF(20) + fused linear NO(8)
			// = 118 values.
			name:   "gcn-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1},
				ParamsGNN:        44,
				OptStatePerParam: 2,
				IsGCN:            true,
			},
			want: Breakdown{
				Params:        44 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    118*4 - 2*4*4,
				Gradients:     44 * 4,
				OptStates:     44 * 2 * 4,
			},
		},
		{
			// GAT, 2 heads, last layer (output width stays o=4): per head
			// SO(12) + 2S(6) + 5E(20) + 2EO(32) + NO(8) = 78, x2 heads =
			// 156, + head averaging NO*H(16) = 172 values.
			name:   "gat-1layer-2heads",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Heads: 2},
				ParamsGNN:        60,
				ParamsAgg:        12,
				OptStatePerParam: 0,
				IsGAT:            true,
			},
			want: Breakdown{
				Params:        72 * 4,
				InputFeatures: 3 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        4 * 3 * 4,
				Hidden:        2 * 4 * 4,
				Aggregator:    172*4 - 2*4*4,
				Gradients:     72 * 4,
				OptStates:     0,
			},
		},
		{
			// Two layers. Layer 0 on midBlock (N=3,S=5,E=6,f=10,o=8):
			// 3NF(90) + fused linear+ReLU NO(24) + fused mean NF(30) = 144
			// values, minus Hidden0 = 3*8 values (96 bytes). Layer 1 on
			// tinyBlock (N=2,S=3,f=8,o=4): 3NF(48) + fused linear NO(8) +
			// fused mean NF(16) = 72 values, minus Hidden1 = 2*4 values
			// (32 bytes).
			name:   "sage-mean-2layer",
			blocks: []*graph.Block{midBlock(), tinyBlock()},
			spec: Spec{
				Model:            nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 2, Aggregator: nn.Mean},
				ParamsGNN:        200,
				OptStatePerParam: 2,
			},
			want: Breakdown{
				Params:        200 * 4,
				InputFeatures: 5 * 10 * 4,
				Labels:        2 * 4,
				Blocks:        10 * 3 * 4,
				Hidden:        3*8*4 + 2*4*4,
				Aggregator:    (144*4 - 3*8*4) + (72*4 - 2*4*4),
				Gradients:     200 * 4,
				OptStates:     200 * 2 * 4,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Estimate(tc.blocks, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("Breakdown mismatch:\ngot  %+v\nwant %+v", got, tc.want)
			}
			// Peak/Total follow from the components.
			stable := tc.want.Params + tc.want.InputFeatures + tc.want.Labels +
				tc.want.Blocks + tc.want.Hidden + tc.want.OptStates
			transient := tc.want.Aggregator
			if tc.want.Gradients > transient {
				transient = tc.want.Gradients
			}
			if got.Peak() != stable+transient {
				t.Errorf("Peak = %d, want %d", got.Peak(), stable+transient)
			}
			if got.Total() != stable+tc.want.Aggregator+tc.want.Gradients {
				t.Errorf("Total = %d", got.Total())
			}
		})
	}
}

// TestEstimateComponentsFused pins the fused-kernel activation accounting
// (DESIGN.md §13) per aggregator on tinyBlock: each fused layer
// materializes one kernel output where a primitive chain would hold
// several, and Mean folds its degree scale into the fused sum's output so
// it costs the same as Sum.
func TestEstimateComponentsFused(t *testing.T) {
	cases := []struct {
		name   string
		blocks []*graph.Block
		spec   Spec
		want   int64 // Aggregator bytes
	}{
		{
			// f=10, o=4: self+concat 3NF(60) + fused linear NO(8) +
			// fused sum-agg NF(20) = 88 values; minus Hidden (8 values).
			name:   "sage-sum-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:     nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Sum},
				ParamsGNN: 50,
			},
			want: (88 - 8) * 4,
		},
		{
			// Mean fuses the degree scale into the same kernel output, so
			// the count matches Sum: 3NF(60) + NO(8) + NF(20) = 88 values.
			name:   "sage-mean-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:     nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1, Aggregator: nn.Mean},
				ParamsGNN: 50,
			},
			want: (88 - 8) * 4,
		},
		{
			// GCN: source scaling SF(30) + fused normalized sum NF(20) +
			// self slice/scale 2NF(40) + add NF(20) + fused linear NO(8)
			// = 118 values.
			name:   "gcn-1layer",
			blocks: []*graph.Block{tinyBlock()},
			spec: Spec{
				Model:     nn.Config{InDim: 10, Hidden: 8, OutDim: 4, Layers: 1},
				ParamsGNN: 44,
				IsGCN:     true,
			},
			want: (118 - 8) * 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Estimate(tc.blocks, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Aggregator != tc.want {
				t.Errorf("fused Aggregator = %d, want %d", got.Aggregator, tc.want)
			}
		})
	}
}

// TestErrorTrackerConverges drives the EMA with a constant relative
// underestimation and checks Margin approaches underestimation+headroom
// geometrically; overestimates clamp to headroom alone.
func TestErrorTrackerConverges(t *testing.T) {
	tr := NewErrorTracker()
	if m := tr.Margin(); math.Abs(m-0.02) > 1e-12 {
		t.Fatalf("pre-observation margin = %v, want headroom 0.02", m)
	}
	// measured = 1.1 * estimated: 10% underestimation, every epoch.
	const want = 0.10 + 0.02
	prevErr := math.Inf(1)
	for i := 0; i < 20; i++ {
		tr.Observe(1000, 1100)
		e := math.Abs(tr.Margin() - want)
		if e > prevErr+1e-15 {
			t.Fatalf("observation %d: margin error grew %v -> %v", i, prevErr, e)
		}
		prevErr = e
	}
	if prevErr > 1e-6 {
		t.Fatalf("margin did not converge: still %v from %v", prevErr, want)
	}
	if !tr.Observations() {
		t.Fatal("Observations false after observing")
	}
	// A long run of overestimates decays the margin back toward headroom.
	for i := 0; i < 40; i++ {
		tr.Observe(1000, 900)
	}
	if m := tr.Margin(); math.Abs(m-0.02) > 1e-6 {
		t.Fatalf("margin after overestimates = %v, want ~0.02", m)
	}
	// Degenerate observations are ignored.
	before := tr.Margin()
	tr.Observe(0, 100)
	tr.Observe(100, 0)
	if after := tr.Margin(); math.Abs(after-before) > 1e-15 {
		t.Fatalf("degenerate observations moved margin %v -> %v", before, after)
	}
}
