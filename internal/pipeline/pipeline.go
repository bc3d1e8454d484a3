package pipeline

import (
	"fmt"

	"mlexray/internal/core"
	"mlexray/internal/device"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/interp"
	"mlexray/internal/ops"
	"mlexray/internal/tensor"
)

// Options configures a pipeline instance.
type Options struct {
	// Resolver selects the kernel set (optimized vs reference, historical
	// defects vs fixed). Defaults to the optimized historical resolver —
	// what a production app of the paper's era shipped.
	Resolver *ops.Resolver
	// Device attaches a latency model (nil = wall-clock only).
	Device *device.Profile
	// Monitor receives telemetry (nil = uninstrumented).
	Monitor *core.Monitor
	// Bug injects one deployment bug into preprocessing.
	Bug Bug
	// Orientation simulates the capture orientation sensor reading; only
	// meaningful alongside BugRotation, and only the classifier logs it.
	Orientation *device.OrientationSensor
	// Backend selects the kernel micro-kernel backend the optimized
	// resolver's conv/dense/depthwise kernels dispatch to (plan-time; the
	// zero value is ops.BackendBlocked). Inert under the reference resolver,
	// whose kernels sit before the backend seam.
	Backend ops.Backend
}

func (o *Options) resolver() *ops.Resolver {
	if o.Resolver != nil {
		return o.Resolver
	}
	return ops.NewOptimized(ops.Historical())
}

// interpOptions turns the pipeline options into interpreter options: the
// monitor's layer hook, the device latency model and the kernel backend.
// Every pipeline plans its interpreter from this one list, so no option can
// reach one pipeline and miss another.
func (o *Options) interpOptions() []interp.Option {
	iopts := []interp.Option{interp.WithBackend(o.Backend)}
	if o.Monitor != nil {
		iopts = append(iopts, interp.WithHook(o.Monitor.LayerHook()))
	}
	if o.Device != nil {
		iopts = append(iopts, interp.WithLatencyModel(o.Device))
	}
	return iopts
}

// frameCore is the one frame path every pipeline runs. It owns a batched
// interpreter of Batch() lanes (interp.NewBatch; a per-frame pipeline is the
// one-lane case), fills the lanes from prepared input tensors, invokes once,
// and emits each frame's telemetry in the one record order: frame advance,
// orientation reading, preprocessing capture, per-layer events (from sliced
// lane views), latency metrics, output slot 0. A batched replay therefore
// merges byte-identical (modulo wall-clock values) to a frame-at-a-time one.
type frameCore struct {
	model *graph.Model
	bip   *interp.Batch
	opts  Options

	// ins is the reused backing array for one run call's prepared inputs,
	// which outlive the lane fill until each frame's telemetry is emitted.
	ins []*tensor.Tensor
}

func newFrameCore(m *graph.Model, task string, batch int, opts Options) (frameCore, error) {
	if m.Meta.Task != task {
		return frameCore{}, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	bip, err := interp.NewBatch(m, batch, opts.resolver(), opts.interpOptions()...)
	if err != nil {
		return frameCore{}, err
	}
	return frameCore{model: m, bip: bip, opts: opts, ins: make([]*tensor.Tensor, 0, batch)}, nil
}

// Batch returns the pipeline's batch capacity.
func (c *frameCore) Batch() int { return c.bip.Batch() }

// Interpreter exposes the underlying batched interpreter (for memory
// accounting and per-frame stats).
func (c *frameCore) Interpreter() *interp.Batch { return c.bip }

// cloneOptions returns the pipeline's options carrying mon instead of its
// own monitor, for Clone.
func (c *frameCore) cloneOptions(mon *core.Monitor) Options {
	o := c.opts
	o.Monitor = mon
	return o
}

// run fills the interpreter lanes with 1..Batch() prepared inputs and
// invokes once. A short batch pads the unused lanes with the last input (the
// padded lanes compute but emit no telemetry). Then, frame by frame in
// order, it emits the frame's telemetry and hands the frame's output slot 0
// — a live view, valid until the next invoke — to visit.
func (c *frameCore) run(ins []*tensor.Tensor, visit func(e int, out *tensor.Tensor) error) error {
	k := len(ins)
	if k == 0 || k > c.Batch() {
		return fmt.Errorf("pipeline: %d frames for batch %d", k, c.Batch())
	}
	for e := 0; e < c.Batch(); e++ {
		if err := c.bip.SetInputElem(0, e, ins[min(e, k-1)]); err != nil {
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
			mon.LogTensor(core.KeyPreprocessOutput, ins[e])
			c.bip.EmitFrame(e)
			mon.OnBatchFrame(c.bip.FrameStats(), out)
		}
		if err := visit(e, out); err != nil {
			return err
		}
	}
	return nil
}

// runOne runs one prepared input as a one-frame batch and returns a clone
// of its output slot 0, safe to retain.
func (c *frameCore) runOne(in *tensor.Tensor) (*tensor.Tensor, error) {
	var res *tensor.Tensor
	err := c.run(append(c.ins[:0], in), func(_ int, out *tensor.Tensor) error {
		res = out.Clone()
		return nil
	})
	return res, err
}

// classifyOne runs one prepared input and returns the predicted class and
// the scores.
func (c *frameCore) classifyOne(in *tensor.Tensor) (int, *tensor.Tensor, error) {
	out, err := c.runOne(in)
	if err != nil {
		return 0, nil, err
	}
	return out.ArgMax(), out, nil
}

// imageCore is the frame core plus the image preprocessing the classifier,
// detector and segmenter share: the model's correct conventions with
// opts.Bug applied.
type imageCore struct {
	frameCore
	preproc ImagePreproc
}

func newImageCore(m *graph.Model, task string, batch int, opts Options) (imageCore, error) {
	fc, err := newFrameCore(m, task, batch, opts)
	if err != nil {
		return imageCore{}, err
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return imageCore{}, err
	}
	return imageCore{frameCore: fc, preproc: pp.WithBug(opts.Bug)}, nil
}

// Preproc returns the active preprocessing configuration.
func (c *imageCore) Preproc() ImagePreproc { return c.preproc }

func (c *imageCore) prep(im *imaging.Image) *tensor.Tensor {
	return PreprocessImage(im, c.model.Meta, c.preproc)
}

// runImages preprocesses 1..Batch() frames and runs them through one invoke.
func (c *imageCore) runImages(ims []*imaging.Image, visit func(e int, out *tensor.Tensor) error) error {
	ins := c.ins[:0]
	for _, im := range ims {
		ins = append(ins, c.prep(im))
	}
	return c.run(ins, visit)
}

// Classifier is an instrumented image-classification pipeline running up
// to Batch() frames per interpreter invoke.
type Classifier struct {
	imageCore
	preds []int
}

// NewClassifier builds a frame-at-a-time classification pipeline for the
// model: NewBatchClassifier with one lane.
func NewClassifier(m *graph.Model, opts Options) (*Classifier, error) {
	return NewBatchClassifier(m, 1, opts)
}

// NewBatchClassifier builds a classification pipeline of batch lanes for
// the model. The preprocessing starts from the model's correct conventions
// with opts.Bug applied.
func NewBatchClassifier(m *graph.Model, batch int, opts Options) (*Classifier, error) {
	c, err := newImageCore(m, "classification", batch, opts)
	if err != nil {
		return nil, err
	}
	return &Classifier{imageCore: c, preds: make([]int, batch)}, nil
}

// Clone builds an independent replica of the pipeline — same model, bug,
// device and batch, but its own interpreter arena and the given monitor —
// so replicas can run frames concurrently. The model, resolver and const
// tensors are shared read-only.
func (c *Classifier) Clone(mon *core.Monitor) (*Classifier, error) {
	return NewBatchClassifier(c.model, c.Batch(), c.cloneOptions(mon))
}

// Classify runs one frame through the instrumented pipeline and returns the
// predicted class and scores.
func (c *Classifier) Classify(im *imaging.Image) (int, *tensor.Tensor, error) {
	return c.classifyOne(c.prep(im))
}

// ClassifyBatch runs 1..Batch() frames through one invoke and returns the
// predicted class per frame. The returned slice is reused by the next call.
func (c *Classifier) ClassifyBatch(ims []*imaging.Image) ([]int, error) {
	err := c.runImages(ims, func(e int, out *tensor.Tensor) error {
		c.preds[e] = out.ArgMax()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c.preds[:len(ims)], nil
}

// Detector is an instrumented object-detection pipeline for SSD-style
// models with class-score and box-offset outputs, running up to Batch()
// frames per interpreter invoke. Its model/output record carries output
// slot 0, the scores.
type Detector struct {
	imageCore
	scores []*tensor.Tensor
	boxes  []*tensor.Tensor
}

// NewDetector builds a frame-at-a-time detection pipeline: NewBatchDetector
// with one lane.
func NewDetector(m *graph.Model, opts Options) (*Detector, error) {
	return NewBatchDetector(m, 1, opts)
}

// NewBatchDetector builds a detection pipeline of batch lanes for the model.
func NewBatchDetector(m *graph.Model, batch int, opts Options) (*Detector, error) {
	opts.Orientation = nil // detection logs no orientation reading
	d, err := newImageCore(m, "detection", batch, opts)
	if err != nil {
		return nil, err
	}
	return &Detector{
		imageCore: d,
		scores:    make([]*tensor.Tensor, batch),
		boxes:     make([]*tensor.Tensor, batch),
	}, nil
}

// Clone builds an independent replica with its own interpreter arena and the
// given monitor (see Classifier.Clone).
func (d *Detector) Clone(mon *core.Monitor) (*Detector, error) {
	return NewBatchDetector(d.model, d.Batch(), d.cloneOptions(mon))
}

// Detect runs one frame and returns raw class scores [A, C] and box offsets
// [A, 4]; decoding/NMS is the caller's postprocessing (models.DecodeDetections).
func (d *Detector) Detect(im *imaging.Image) (scores, boxes *tensor.Tensor, err error) {
	s, b, err := d.DetectBatch([]*imaging.Image{im})
	if err != nil {
		return nil, nil, err
	}
	return s[0], b[0], nil
}

// DetectBatch runs 1..Batch() frames through one invoke and returns each
// frame's raw class scores [A, C] and box offsets [A, 4]. The returned
// slices are reused by the next call; the tensors are clones, safe to
// retain.
func (d *Detector) DetectBatch(ims []*imaging.Image) (scores, boxes []*tensor.Tensor, err error) {
	err = d.runImages(ims, func(e int, s *tensor.Tensor) error {
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

// Segmenter is an instrumented segmentation pipeline.
type Segmenter struct {
	imageCore
}

// NewSegmenter builds a segmentation pipeline.
func NewSegmenter(m *graph.Model, opts Options) (*Segmenter, error) {
	opts.Orientation = nil // segmentation logs no orientation reading
	s, err := newImageCore(m, "segmentation", 1, opts)
	if err != nil {
		return nil, err
	}
	return &Segmenter{s}, nil
}

// Clone builds an independent replica with its own interpreter arena and the
// given monitor (see Classifier.Clone).
func (s *Segmenter) Clone(mon *core.Monitor) (*Segmenter, error) {
	return NewSegmenter(s.model, s.cloneOptions(mon))
}

// Segment returns the per-pixel argmax label map.
func (s *Segmenter) Segment(im *imaging.Image) ([]int32, error) {
	out, err := s.runOne(s.prep(im))
	if err != nil {
		return nil, err
	}
	// out is [1, h, w, C]: argmax over the class axis.
	h, w, c := out.Shape[1], out.Shape[2], out.Shape[3]
	labels := make([]int32, h*w)
	for i := 0; i < h*w; i++ {
		best := 0
		for cc := 1; cc < c; cc++ {
			if out.F[i*c+cc] > out.F[i*c+best] {
				best = cc
			}
		}
		labels[i] = int32(best)
	}
	return labels, nil
}

// SpeechRecognizer is an instrumented keyword-spotting pipeline.
type SpeechRecognizer struct {
	frameCore
	preproc SpeechPreproc
}

// NewSpeechRecognizer builds a speech pipeline.
func NewSpeechRecognizer(m *graph.Model, opts Options) (*SpeechRecognizer, error) {
	opts.Orientation = nil // speech logs no orientation reading
	fc, err := newFrameCore(m, "speech", 1, opts)
	if err != nil {
		return nil, err
	}
	pp, err := CorrectSpeechPreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	return &SpeechRecognizer{frameCore: fc, preproc: pp.WithBug(opts.Bug)}, nil
}

// Clone builds an independent replica with its own interpreter arena and the
// given monitor (see Classifier.Clone).
func (s *SpeechRecognizer) Clone(mon *core.Monitor) (*SpeechRecognizer, error) {
	return NewSpeechRecognizer(s.model, s.cloneOptions(mon))
}

// Recognize classifies one waveform.
func (s *SpeechRecognizer) Recognize(wave []float64) (int, *tensor.Tensor, error) {
	in, err := PreprocessSpeech(wave, s.preproc)
	if err != nil {
		return 0, nil, err
	}
	return s.classifyOne(in)
}

// TextClassifier is an instrumented sentiment pipeline.
type TextClassifier struct {
	frameCore
	// tokenize maps raw text to ids; the BugLowercase variant folds case
	// first (the §A experiment). origTok keeps the unwrapped tokenizer so
	// Clone can rebuild without stacking the bug twice.
	tokenize func(string) []int32
	origTok  func(string) []int32
}

// NewTextClassifier builds a text pipeline. tokenizer maps text to fixed-
// length token ids (datasets.TokenizeText for the synthetic vocab).
func NewTextClassifier(m *graph.Model, tokenizer func(string) []int32, opts Options) (*TextClassifier, error) {
	opts.Orientation = nil // text logs no orientation reading
	fc, err := newFrameCore(m, "text", 1, opts)
	if err != nil {
		return nil, err
	}
	t := &TextClassifier{frameCore: fc, tokenize: tokenizer, origTok: tokenizer}
	if opts.Bug == BugLowercase {
		t.tokenize = func(s string) []int32 { return tokenizer(lowercase(s)) }
	}
	return t, nil
}

func lowercase(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// Clone builds an independent replica with its own interpreter arena and the
// given monitor (see Classifier.Clone).
func (t *TextClassifier) Clone(mon *core.Monitor) (*TextClassifier, error) {
	return NewTextClassifier(t.model, t.origTok, t.cloneOptions(mon))
}

// ClassifyText runs one review through the pipeline.
func (t *TextClassifier) ClassifyText(text string) (int, *tensor.Tensor, error) {
	ids := t.tokenize(text)
	return t.classifyOne(tensor.FromInt32(ids, 1, len(ids)))
}
