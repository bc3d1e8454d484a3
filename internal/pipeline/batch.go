package pipeline

import (
	"fmt"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/interp"
	"mlexray/internal/tensor"
)

// batchCore is the execution half both batched image pipelines share: it
// runs up to Batch() frames per interpreter invoke through a
// graph.Rebatch-ed model replica, amortizing per-node dispatch across the
// batch, and emits telemetry per frame in exactly the sequential pipelines'
// record order — frame advance, orientation reading, preprocessing capture,
// per-layer events (from sliced batch views), latency metrics, output slot 0
// — so a batched replay merges byte-identical (modulo wall-clock values) to
// a frame-at-a-time one. The interpreter is planned from the same option
// list as the sequential pipelines', so every Options field (backend
// included) holds at every batch size.
type batchCore struct {
	model   *graph.Model
	bip     *interp.Batch
	preproc ImagePreproc
	opts    Options

	// ins retains the per-element preprocessed tensors between the compute
	// pass and the per-frame telemetry emission pass.
	ins []*tensor.Tensor
}

func newBatchCore(m *graph.Model, task string, batch int, opts Options) (*batchCore, error) {
	if m.Meta.Task != task {
		return nil, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	if batch < 1 {
		return nil, fmt.Errorf("pipeline: batch size %d", batch)
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	bip, err := interp.NewBatch(m, batch, opts.resolver(), opts.interpOptions()...)
	if err != nil {
		return nil, err
	}
	return &batchCore{
		model:   m,
		bip:     bip,
		preproc: pp.WithBug(opts.Bug),
		opts:    opts,
		ins:     make([]*tensor.Tensor, batch),
	}, nil
}

// Batch returns the pipeline's batch capacity.
func (c *batchCore) Batch() int { return c.bip.Batch() }

// Interpreter exposes the underlying batched interpreter (for memory
// accounting and per-frame stats).
func (c *batchCore) Interpreter() *interp.Batch { return c.bip }

// Preproc returns the active preprocessing configuration.
func (c *batchCore) Preproc() ImagePreproc { return c.preproc }

// run preprocesses 1..Batch() frames into the interpreter lanes and invokes
// once. A short final batch pads the unused lanes with the last frame (the
// padded lanes compute but emit no telemetry). Then, frame by frame in
// order, it emits the frame's telemetry and hands the frame's output slot 0
// — a live view, valid until the next invoke — to visit.
func (c *batchCore) run(ims []*imaging.Image, visit func(e int, out *tensor.Tensor) error) error {
	k := len(ims)
	if k == 0 || k > c.Batch() {
		return fmt.Errorf("pipeline: %d frames for batch %d", k, c.Batch())
	}
	for e, im := range ims {
		c.ins[e] = PreprocessImage(im, c.model.Meta, c.preproc)
		if err := c.bip.SetInputElem(0, e, c.ins[e]); err != nil {
			return err
		}
	}
	for e := k; e < c.Batch(); e++ { // pad the tail so every lane holds valid data
		if err := c.bip.SetInputElem(0, e, c.ins[k-1]); err != nil {
			return err
		}
	}
	if err := c.bip.Invoke(); err != nil {
		return err
	}
	mon := c.opts.Monitor
	for e := 0; e < k; e++ {
		out, err := c.bip.OutputAt(0, e)
		if err != nil {
			return err
		}
		if mon != nil {
			mon.NextFrame()
			if c.opts.Orientation != nil {
				mon.LogSensor(core.KeySensorOrientation, c.opts.Orientation.Read(), "deg")
			}
			mon.LogTensor(core.KeyPreprocessOutput, c.ins[e])
			c.bip.EmitFrame(e)
			mon.OnBatchFrame(c.bip.FrameStats(), out)
		}
		if err := visit(e, out); err != nil {
			return err
		}
	}
	return nil
}

// BatchClassifier is the batched-inference variant of Classifier: up to
// Batch() frames per interpreter invoke, with telemetry identical to
// Classify's frame for frame. Batch 1 is the degenerate case.
type BatchClassifier struct {
	*batchCore
	preds []int
}

// NewBatchClassifier builds a batch-capacity classification pipeline for the
// model. Preprocessing, bug injection, monitor, device and backend semantics
// match NewClassifier frame for frame.
func NewBatchClassifier(m *graph.Model, batch int, opts Options) (*BatchClassifier, error) {
	c, err := newBatchCore(m, "classification", batch, opts)
	if err != nil {
		return nil, err
	}
	return &BatchClassifier{batchCore: c, preds: make([]int, batch)}, nil
}

// ClassifyBatch runs 1..Batch() frames through one batched invoke and
// returns the predicted class per frame. The returned slice is reused by the
// next call.
func (c *BatchClassifier) ClassifyBatch(ims []*imaging.Image) ([]int, error) {
	err := c.run(ims, func(e int, out *tensor.Tensor) error {
		c.preds[e] = out.ArgMax()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c.preds[:len(ims)], nil
}

// BatchDetector is the batched-inference variant of Detector for SSD-style
// models: up to Batch() frames per interpreter invoke, with the two-output
// head (class scores, box offsets) decoded per element through
// interp.Batch.OutputAt and telemetry identical to Detect's frame for frame
// (its latency record logs output slot 0, the scores).
type BatchDetector struct {
	*batchCore
	scores []*tensor.Tensor
	boxes  []*tensor.Tensor
}

// NewBatchDetector builds a batch-capacity detection pipeline for the model.
// Preprocessing, bug injection, monitor, device and backend semantics match
// NewDetector frame for frame.
func NewBatchDetector(m *graph.Model, batch int, opts Options) (*BatchDetector, error) {
	opts.Orientation = nil // Detect logs no orientation reading
	d, err := newBatchCore(m, "detection", batch, opts)
	if err != nil {
		return nil, err
	}
	return &BatchDetector{
		batchCore: d,
		scores:    make([]*tensor.Tensor, batch),
		boxes:     make([]*tensor.Tensor, batch),
	}, nil
}

// DetectBatch runs 1..Batch() frames through one batched invoke and returns
// each frame's raw class scores [A, C] and box offsets [A, 4]. The returned
// slices are reused by the next call; the tensors are clones, safe to
// retain.
func (d *BatchDetector) DetectBatch(ims []*imaging.Image) (scores, boxes []*tensor.Tensor, err error) {
	err = d.run(ims, func(e int, s *tensor.Tensor) error {
		b, err := d.bip.OutputAt(1, e)
		if err != nil {
			return err
		}
		d.scores[e], d.boxes[e] = s.Clone(), b.Clone()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return d.scores[:len(ims)], d.boxes[:len(ims)], nil
}
