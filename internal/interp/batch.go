package interp

import (
	"fmt"
	"time"

	"mlexray/internal/graph"
	"mlexray/internal/ops"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// Batch executes B frames per Invoke through a graph.Rebatch-ed clone of a
// deployment model, amortizing per-node dispatch (kernel lookup, timing,
// arena resets, hook bookkeeping) across the whole batch. It preserves the
// sequential observation contract exactly:
//
//   - Per-frame telemetry. EmitFrame(e) replays the hook events for batch
//     element e in node order, with each event's Outputs sliced to that
//     element along the leading batch dimension — an observer cannot tell a
//     batched frame from a sequentially executed one.
//   - Per-frame modeled latency. Events carry the cost of the *batch-1*
//     node shapes, so device-model projections are bit-identical to a
//     sequential run (a batch-B cost divided by B would not be, because the
//     latency model has per-node constant terms).
//   - Bitwise outputs. Every kernel iterates batch elements independently
//     (or row-independently, for the GEMM lowering), so each element's
//     floating-point summation order matches the batch-1 execution and the
//     outputs are bitwise identical.
//
// Wall-clock ("measured") per-frame values are the per-node batch durations
// divided by B — the only telemetry that differs from a sequential run,
// exactly the class of records no two runs share anyway.
type Batch struct {
	base *graph.Model
	ip   *Interpreter
	n    int

	hook     NodeHook
	latModel LatencyModel

	costs1       []ops.Cost
	nodeModeled  []time.Duration
	frameModeled time.Duration

	// events[e][i] is the pre-built hook event for batch element e, node i;
	// only Measured is filled in at emit time.
	events [][]NodeEvent

	inViews  [][]*tensor.Tensor // [input slot][element]
	outViews [][]*tensor.Tensor // [output slot][element]
}

// NewBatch plans a batch-n executor for the model. The options are the same
// as New's; the hook fires per frame element during EmitFrame rather than
// during Invoke, and the latency model projects batch-1 node costs.
func NewBatch(m *graph.Model, n int, resolver *ops.Resolver, opts ...Option) (*Batch, error) {
	if n < 1 {
		return nil, fmt.Errorf("interp: batch size %d", n)
	}
	rebatched, err := graph.Rebatch(m, n)
	if err != nil {
		return nil, fmt.Errorf("interp: batch %d: %w", n, err)
	}
	// Constants keep their shapes and ids under Rebatch, and kernels never
	// write them (packed panels live on the node Ctx), so every replica plans
	// on the source model's weights instead of a private copy.
	rebatched.Consts = m.Consts
	// The inner interpreter runs bare of observation options: no hook
	// (events are replayed per frame afterwards) and no latency model
	// (projections use batch-1 costs, computed here). The kernel backend IS
	// threaded through — it changes what the kernels execute.
	var probe Interpreter
	for _, o := range opts {
		o(&probe)
	}
	ip, err := New(rebatched, resolver, WithBackend(probe.backend))
	if err != nil {
		return nil, err
	}
	bp := &Batch{
		base:     m,
		ip:       ip,
		n:        n,
		hook:     probe.hook,
		latModel: probe.latModel,
		costs1:   make([]ops.Cost, len(m.Nodes)),
		events:   make([][]NodeEvent, n),
	}
	shapeOf := func(id int) []int { return m.Tensors[id].Shape }
	sizeOf := func(id int) int { return m.Tensors[id].DType.Size() }
	bp.nodeModeled = make([]time.Duration, len(m.Nodes))
	for i := range m.Nodes {
		bp.costs1[i] = ops.EstimateCostBackend(&m.Nodes[i], ip.kinds[i], probe.backend, shapeOf, sizeOf)
		if bp.latModel != nil {
			bp.nodeModeled[i] = bp.latModel.NodeLatency(m.Nodes[i].Op, ip.kinds[i], resolver.Name(), bp.costs1[i])
			bp.frameModeled += bp.nodeModeled[i]
		}
	}

	bp.inViews = make([][]*tensor.Tensor, len(m.Inputs))
	for slot, id := range m.Inputs {
		bp.inViews[slot] = elementViews(ip.tensors[rebatched.Inputs[slot]], m.Tensors[id].Shape, n)
	}
	bp.outViews = make([][]*tensor.Tensor, len(m.Outputs))
	for slot, id := range m.Outputs {
		bp.outViews[slot] = elementViews(ip.tensors[rebatched.Outputs[slot]], m.Tensors[id].Shape, n)
	}

	// Slice every node output once ([node][output][element]), then assemble
	// the per-element event templates from the shared views.
	nodeViews := make([][][]*tensor.Tensor, len(m.Nodes))
	nodeQuant := make([][]*quant.Params, len(m.Nodes))
	for i := range m.Nodes {
		node := &m.Nodes[i]
		nodeViews[i] = make([][]*tensor.Tensor, len(node.Outputs))
		nodeQuant[i] = make([]*quant.Params, len(node.Outputs))
		for j, id := range node.Outputs {
			bt := ip.tensors[rebatched.Nodes[i].Outputs[j]]
			nodeViews[i][j] = elementViews(bt, m.Tensors[id].Shape, n)
			nodeQuant[i][j] = m.Tensors[id].Quant
		}
	}
	for e := 0; e < n; e++ {
		bp.events[e] = make([]NodeEvent, len(m.Nodes))
		for i := range m.Nodes {
			outs := make([]*tensor.Tensor, len(nodeViews[i]))
			for j := range nodeViews[i] {
				outs[j] = nodeViews[i][j][e]
			}
			bp.events[e][i] = NodeEvent{
				Index: i, Node: &m.Nodes[i], Outputs: outs, OutQuant: nodeQuant[i],
				Kind: ip.kinds[i], Cost: bp.costs1[i], Modeled: bp.nodeModeled[i],
			}
		}
	}
	return bp, nil
}

// elementViews slices a batched tensor into n per-element views with the
// batch-1 shape. Views share storage with the live runtime tensor; observers
// must clone to retain across Invoke calls, same as sequential hooks.
func elementViews(t *tensor.Tensor, baseShape []int, n int) []*tensor.Tensor {
	stride := t.Len() / n
	views := make([]*tensor.Tensor, n)
	for e := 0; e < n; e++ {
		v := &tensor.Tensor{DType: t.DType, Shape: baseShape}
		lo, hi := e*stride, (e+1)*stride
		switch t.DType {
		case tensor.F32:
			v.F = t.F[lo:hi]
		case tensor.U8:
			v.U = t.U[lo:hi]
		case tensor.I8:
			v.I = t.I[lo:hi]
		case tensor.I32:
			v.X = t.X[lo:hi]
		}
		views[e] = v
	}
	return views
}

// Batch returns the planned batch capacity B.
func (bp *Batch) Batch() int { return bp.n }

// Model returns the batch-1 source model.
func (bp *Batch) Model() *graph.Model { return bp.base }

// BatchModel returns the rebatched execution model.
func (bp *Batch) BatchModel() *graph.Model { return bp.ip.Model() }

// ArenaBytes returns the batched interpreter's activation footprint.
func (bp *Batch) ArenaBytes() int { return bp.ip.ArenaBytes() }

// SetInputElem copies t (batch-1 shaped) into element e of input slot i.
func (bp *Batch) SetInputElem(i, e int, t *tensor.Tensor) error {
	if i < 0 || i >= len(bp.inViews) {
		return fmt.Errorf("interp: input %d of %d", i, len(bp.inViews))
	}
	if e < 0 || e >= bp.n {
		return fmt.Errorf("interp: batch element %d of %d", e, bp.n)
	}
	dst := bp.inViews[i][e]
	if dst.DType != t.DType {
		return fmt.Errorf("interp: input %d dtype %v, model wants %v", i, t.DType, dst.DType)
	}
	if !tensor.SameShape(dst.Shape, t.Shape) {
		return fmt.Errorf("interp: input %d shape %v, model wants %v", i, t.Shape, dst.Shape)
	}
	dst.CopyFrom(t)
	return nil
}

// SetInputBatch copies up to B batch-1 tensors into input slot i, elements
// 0..len(elems)-1. Fewer than B elements leaves the tail slots untouched
// (callers replay a partial final batch by padding or by simply not emitting
// the unused elements).
func (bp *Batch) SetInputBatch(i int, elems []*tensor.Tensor) error {
	if len(elems) == 0 || len(elems) > bp.n {
		return fmt.Errorf("interp: %d elements for batch %d", len(elems), bp.n)
	}
	for e, t := range elems {
		if err := bp.SetInputElem(i, e, t); err != nil {
			return err
		}
	}
	return nil
}

// Invoke executes the batched model once — B frames per call.
func (bp *Batch) Invoke() error { return bp.ip.Invoke() }

// EmitFrame replays the per-node hook events for batch element e, in node
// order, against the hook attached at construction. Outputs are per-element
// views; Measured is the node's batch duration split evenly across elements.
func (bp *Batch) EmitFrame(e int) {
	if bp.hook == nil {
		return
	}
	evs := bp.events[e]
	for i := range evs {
		ev := evs[i]
		ev.Measured = bp.ip.measured[i] / time.Duration(bp.n)
		bp.hook(ev)
	}
}

// FrameStats returns the per-frame share of the last Invoke: measured time
// split evenly, and the batch-1 modeled projection (identical to what a
// sequential run reports).
func (bp *Batch) FrameStats() InvokeStats {
	return InvokeStats{
		Measured: bp.ip.last.Measured / time.Duration(bp.n),
		Modeled:  bp.frameModeled,
	}
}

// OutputAt returns the live per-element view of output slot i, element e.
// Clone before mutating or retaining across Invoke calls.
func (bp *Batch) OutputAt(i, e int) (*tensor.Tensor, error) {
	if i < 0 || i >= len(bp.outViews) {
		return nil, fmt.Errorf("interp: output %d of %d", i, len(bp.outViews))
	}
	if e < 0 || e >= bp.n {
		return nil, fmt.Errorf("interp: batch element %d of %d", e, bp.n)
	}
	return bp.outViews[i][e], nil
}
