package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

// replayBatch is the frames per batched invoke on every replay workload.
const replayBatch = 8

func fullCapture() []core.MonitorOption {
	return []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}
}

func statsCapture() []core.MonitorOption {
	return []core.MonitorOption{core.WithCaptureMode(core.CaptureStats), core.WithPerLayer(true)}
}

func fixedOpts(b ops.Backend) pipeline.Options {
	return pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed()), Backend: b}
}

// replayW is replay-full-float: the float mobilenetv2-mini graph on the
// tiled backend, full per-layer capture, a binary core.LogSink into a
// discarding writer, nproc workers at batch 8. Each pass replays the
// seed's image set once.
type replayW struct {
	cfg    *config
	images []*imaging.Image
	model  *graph.Model
	ref    *core.Log // full capture on the bitwise-stable blocked backend
	rpf    int       // records per frame
}

func newReplay(cfg *config) *replayW {
	return &replayW{cfg: cfg, images: replay.Images(datasets.SynthImageNet(cfg.seed, cfg.sz.replayFrames))}
}

func (w *replayW) setup() error {
	e, err := zoo.Get(modelName)
	if err != nil {
		return err
	}
	w.model = e.Mobile
	if _, err := pipeline.NewBatchClassifier(w.model, replayBatch, fixedOpts(ops.BackendTiled)); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	w.ref, err = replay.Classification(w.model, fixedOpts(ops.BackendBlocked), w.images,
		runner.Options{Workers: w.cfg.procs, BatchFrames: replayBatch, MonitorOptions: fullCapture()}, nil)
	if err != nil {
		return fmt.Errorf("reference capture: %w", err)
	}
	if len(w.ref.Records)%len(w.images) != 0 {
		return fmt.Errorf("reference capture: %d records over %d frames", len(w.ref.Records), len(w.images))
	}
	w.rpf = len(w.ref.Records) / len(w.images)
	return nil
}

// prepare checks a first pass in full against the reference.
func (w *replayW) prepare(t *tally) error { return w.verify(t) }

// replaySink wraps the workload's LogSink: per frame it checks order and
// record count, and times WriteFrame — the time from the frame's handoff to
// its bytes being in the log.
type replaySink struct {
	inner  core.LogSink
	rpf    int
	next   int // expected frame tag (tags are 1-based)
	frames int
	bad    int
	vis    []float64

	tr     *tracer
	parent int64
	label  string
	agg    *layerAgg
}

func (s *replaySink) WriteFrame(frame int, recs []core.Record) error {
	if frame != s.next || len(recs) != s.rpf {
		s.bad++
	}
	s.next = frame + 1
	s.frames++
	var id int64
	if s.tr != nil {
		s.agg.add(recs)
		id = s.tr.id()
	}
	start := time.Now()
	err := s.inner.WriteFrame(frame, recs)
	end := time.Now()
	s.vis = append(s.vis, ms(end.Sub(start)))
	if s.tr != nil {
		s.tr.record(id, s.parent, "core.encode", s.label+"-f"+strconv.Itoa(frame), "", start, end)
	}
	return err
}

func (s *replaySink) Flush() error { return s.inner.Flush() }

// countWriter is the discarding log destination; it counts what it is given.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

type replayStats struct {
	frames, bad int
	bytes       int64
	vis         []float64
	agg         layerAgg
}

// pass replays the image set once into dst and returns its wall time.
func (w *replayW) pass(dst io.Writer, tr *tracer, n int, st *replayStats) (time.Duration, error) {
	inner, err := core.NewLogSink(dst, core.FormatBinary)
	if err != nil {
		return 0, err
	}
	s := &replaySink{inner: inner, rpf: w.rpf, next: 1, tr: tr, agg: &st.agg}
	var passID int64
	if tr != nil {
		passID = tr.id()
		s.parent, s.label = passID, "r"+strconv.Itoa(n)
	}
	start := time.Now()
	_, err = replay.Classification(w.model, fixedOpts(ops.BackendTiled), w.images, runner.Options{
		Workers: w.cfg.procs, BatchFrames: replayBatch, MonitorOptions: fullCapture(),
		Sink: s, DiscardLog: true,
	}, nil)
	if err == nil {
		err = inner.Flush()
	}
	wall := time.Since(start)
	if tr != nil {
		tr.record(passID, 0, "runner.pass", s.label, "", start, start.Add(wall))
	}
	if err != nil {
		return wall, fmt.Errorf("replay pass: %w", err)
	}
	if c, ok := dst.(*countWriter); ok && c.n != int64(inner.Bytes()) {
		s.bad++
	}
	st.frames += s.frames
	st.bad += s.bad + len(w.images) - s.frames
	st.bytes += int64(inner.Bytes())
	st.vis = append(st.vis, s.vis...)
	return wall, nil
}

func (w *replayW) measure(d time.Duration, tr *tracer, t *tally) (*phase, error) {
	p := newPhase()
	p.workers, p.collectors = w.cfg.procs, 1
	if _, err := w.pass(&countWriter{}, nil, 0, &replayStats{}); err != nil {
		t.add(1, 1, err.Error())
		return p, err
	}
	st := &replayStats{}
	deadline := time.Now().Add(d)
	for n := 1; n == 1 || time.Now().Before(deadline); n++ {
		frames, vis := st.frames, len(st.vis)
		start := time.Now()
		wall, err := w.pass(&countWriter{}, tr, n, st)
		if err != nil {
			t.add(len(w.images), len(w.images), err.Error())
			return p, err
		}
		u := unit{start: start, end: start.Add(wall), frames: st.frames - frames, vis: st.vis[vis:]}
		p.passes = append(p.passes, u)
		p.wall += wall
	}
	t.add(st.frames, st.bad, "replay frames out of order, short of records, or missing")
	p.frames, p.bytes = st.frames, st.bytes
	if tr != nil {
		st.agg.layers(w.model, p.layers)
		pre, err := preprocessNs(w.images, w.model)
		if err != nil {
			return p, err
		}
		p.layers["pipeline.preprocess_us"] = us(pre)
		p.nodeNs, p.preNs = st.agg.nodeNs(), pre
	}
	return p, nil
}

// verify captures one pass into memory and checks it: the log decodes to
// exactly frames × records-per-frame records, and core.Validate against the
// blocked-backend reference finds full top-1 agreement and no flagged layer.
func (w *replayW) verify(t *tally) error {
	var buf bytes.Buffer
	st := &replayStats{}
	if _, err := w.pass(&buf, nil, 0, st); err != nil {
		return err
	}
	edge, err := core.ReadLog(&buf)
	if err != nil {
		t.add(1, 1, fmt.Sprintf("replay log does not decode: %v", err))
		return nil
	}
	want := len(w.images) * w.rpf
	t.check(len(edge.Records) == want && st.bad == 0,
		"replay log decodes to %d records (want %d), %d bad frames", len(edge.Records), want, st.bad)
	if w.cfg.tamperPrediction {
		tamperPrediction(edge)
	}
	rep, err := core.Validate(edge, w.ref, core.DefaultValidateOptions())
	if err != nil {
		t.add(1, 1, fmt.Sprintf("validate: %v", err))
		return nil
	}
	t.check(rep.OutputAgreement == 1 && len(rep.Suspects) == 0 && rep.Spike == nil,
		"tiled vs blocked: agreement %.4f, %d suspect layers", rep.OutputAgreement, len(rep.Suspects))
	return nil
}

// tamperPrediction moves the first frame's top-1 class to another class —
// the corruption the negative test expects the output check to catch.
func tamperPrediction(l *core.Log) {
	for i := range l.Records {
		r := &l.Records[i]
		if r.Key != core.KeyModelOutput {
			continue
		}
		out, err := r.DecodeTensor()
		if err != nil || out.Len() < 2 {
			return
		}
		top := out.ArgMax()
		out.F[(top+1)%out.Len()] = out.F[top] + 1
		r.EncodeTensor(out, true)
		return
	}
}

func (w *replayW) check(t *tally) {
	if err := w.verify(t); err != nil {
		t.add(1, 1, err.Error())
	}
}

func (w *replayW) close() {}
