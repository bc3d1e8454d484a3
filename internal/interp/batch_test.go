package interp

import (
	"math/rand"
	"testing"

	"mlexray/internal/ops"
	"mlexray/internal/tensor"
)

// TestBatchMatchesSequentialBitwise is the batched-execution contract: every
// element of a batch-B invoke is bitwise identical to running that input
// through a batch-1 interpreter.
func TestBatchMatchesSequentialBitwise(t *testing.T) {
	for _, resolver := range []*ops.Resolver{ops.NewReference(ops.Fixed()), ops.NewOptimized(ops.Fixed())} {
		m := buildCNN(t, 11)
		seq, err := New(m, resolver)
		if err != nil {
			t.Fatal(err)
		}
		const B = 4
		bp, err := NewBatch(m, B, resolver)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		ins := make([]*tensor.Tensor, B)
		for e := range ins {
			ins[e] = tensor.New(tensor.F32, 1, 8, 8, 3)
			tensor.RandUniform(rng, ins[e], -1, 1)
		}
		if err := bp.SetInputBatch(0, ins); err != nil {
			t.Fatal(err)
		}
		if err := bp.Invoke(); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < B; e++ {
			want, err := seq.Run(ins[e])
			if err != nil {
				t.Fatal(err)
			}
			got, err := bp.OutputAt(0, e)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.F {
				if want.F[i] != got.F[i] {
					t.Fatalf("%s: element %d output[%d]: batched %v != sequential %v",
						resolver.Name(), e, i, got.F[i], want.F[i])
				}
			}
		}
	}
}

// TestBatchEmitFrameEventsMatchSequential compares the hook event stream of
// EmitFrame against a sequential run: same node order, same per-element
// output data, same modeled latency (batch-1 costs), same quant params.
func TestBatchEmitFrameEventsMatchSequential(t *testing.T) {
	m := buildCNN(t, 13)
	lat := fakeLatency{}

	var seqEvents []NodeEvent
	var seqOutputs [][]float32
	seq, err := New(m, ops.NewOptimized(ops.Fixed()), WithLatencyModel(lat), WithHook(func(ev NodeEvent) {
		seqEvents = append(seqEvents, ev)
		seqOutputs = append(seqOutputs, append([]float32(nil), ev.Outputs[0].F...))
	}))
	if err != nil {
		t.Fatal(err)
	}

	const B = 3
	var batchEvents []NodeEvent
	var batchOutputs [][]float32
	bp, err := NewBatch(m, B, ops.NewOptimized(ops.Fixed()), WithLatencyModel(lat), WithHook(func(ev NodeEvent) {
		batchEvents = append(batchEvents, ev)
		batchOutputs = append(batchOutputs, append([]float32(nil), ev.Outputs[0].F...))
	}))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(14))
	ins := make([]*tensor.Tensor, B)
	for e := range ins {
		ins[e] = tensor.New(tensor.F32, 1, 8, 8, 3)
		tensor.RandUniform(rng, ins[e], -1, 1)
	}
	for e, in := range ins {
		if _, err := seq.Run(in); err != nil {
			t.Fatal(err)
		}
		_ = e
	}
	if err := bp.SetInputBatch(0, ins); err != nil {
		t.Fatal(err)
	}
	if err := bp.Invoke(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < B; e++ {
		bp.EmitFrame(e)
	}

	if len(batchEvents) != len(seqEvents) {
		t.Fatalf("batched emitted %d events, sequential %d", len(batchEvents), len(seqEvents))
	}
	for i := range seqEvents {
		se, be := seqEvents[i], batchEvents[i]
		if se.Index != be.Index || se.Node.Name != be.Node.Name || se.Kind != be.Kind {
			t.Fatalf("event %d: node mismatch (%s vs %s)", i, se.Node.Name, be.Node.Name)
		}
		if se.Cost != be.Cost {
			t.Errorf("event %d (%s): cost %+v vs %+v — batched events must carry batch-1 costs",
				i, se.Node.Name, be.Cost, se.Cost)
		}
		if se.Modeled != be.Modeled {
			t.Errorf("event %d (%s): modeled %v vs %v", i, se.Node.Name, be.Modeled, se.Modeled)
		}
		if !tensor.SameShape(se.Outputs[0].Shape, be.Outputs[0].Shape) {
			t.Fatalf("event %d: output shape %v vs %v", i, be.Outputs[0].Shape, se.Outputs[0].Shape)
		}
		for j := range seqOutputs[i] {
			if seqOutputs[i][j] != batchOutputs[i][j] {
				t.Fatalf("event %d (%s): output[%d] %v vs %v", i, se.Node.Name, j, batchOutputs[i][j], seqOutputs[i][j])
			}
		}
	}

	// Per-frame stats must report the sequential modeled total.
	if got, want := bp.FrameStats().Modeled, seq.LastInvokeStats().Modeled; got != want {
		t.Errorf("FrameStats modeled %v, sequential %v", got, want)
	}
}

// TestBatchSharesSourceWeights: a batched executor plans on the source
// model's constant tensors rather than a private copy, at one lane and at
// many, so pipeline replicas share one set of weights.
func TestBatchSharesSourceWeights(t *testing.T) {
	m := buildCNN(t, 16)
	for _, b := range []int{1, 8} {
		bp, err := NewBatch(m, b, ops.NewOptimized(ops.Fixed()))
		if err != nil {
			t.Fatal(err)
		}
		consts := bp.BatchModel().Consts
		if len(consts) != len(m.Consts) {
			t.Fatalf("batch %d: %d consts, source has %d", b, len(consts), len(m.Consts))
		}
		for id, c := range m.Consts {
			if consts[id] != c {
				t.Errorf("batch %d: const %d is a copy of the source weight", b, id)
			}
		}
	}
}

func TestBatchInputValidation(t *testing.T) {
	m := buildCNN(t, 15)
	bp, err := NewBatch(m, 2, ops.NewReference(ops.Fixed()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch(m, 0, ops.NewReference(ops.Fixed())); err == nil {
		t.Error("accepted batch 0")
	}
	good := tensor.New(tensor.F32, 1, 8, 8, 3)
	if err := bp.SetInputElem(0, 5, good); err == nil {
		t.Error("accepted out-of-range element")
	}
	if err := bp.SetInputElem(1, 0, good); err == nil {
		t.Error("accepted bad slot")
	}
	if err := bp.SetInputElem(0, 0, tensor.New(tensor.F32, 1, 4, 4, 3)); err == nil {
		t.Error("accepted bad shape")
	}
	if err := bp.SetInputBatch(0, nil); err == nil {
		t.Error("accepted empty batch")
	}
	if err := bp.SetInputBatch(0, []*tensor.Tensor{good, good, good}); err == nil {
		t.Error("accepted oversized batch")
	}
	if _, err := bp.OutputAt(0, 9); err == nil {
		t.Error("accepted bad output element")
	}
	if _, err := bp.OutputAt(3, 0); err == nil {
		t.Error("accepted bad output slot")
	}
	if bp.Batch() != 2 || bp.Model() != m || bp.BatchModel().Tensors[m.Inputs[0]].Shape[0] != 2 {
		t.Error("accessors")
	}
	if bp.ArenaBytes() <= 0 {
		t.Error("ArenaBytes")
	}
}

// TestInvokeSteadyStateAllocationFree pins the zero-allocation contract of
// the planned interpreter: after the first Invoke (which may grow kernel
// caches), Invoke allocates nothing.
func TestInvokeSteadyStateAllocationFree(t *testing.T) {
	for _, resolver := range []*ops.Resolver{ops.NewReference(ops.Fixed()), ops.NewOptimized(ops.Fixed())} {
		m := buildCNN(t, 17)
		ip, err := New(m, resolver)
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.New(tensor.F32, 1, 8, 8, 3)
		in.Fill(0.25)
		if err := ip.SetInput(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil { // warm kernel caches
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := ip.Invoke(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s resolver: steady-state Invoke allocates %.1f objects/op, want 0", resolver.Name(), allocs)
		}
	}
}
