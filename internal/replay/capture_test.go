package replay

import (
	"bytes"
	"strings"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

// sequentialCapture is the reference implementation of Capture: one
// pipeline, one monitor, the task's evaluation samples in frame order.
func sequentialCapture(t *testing.T, m *graph.Model, popts pipeline.Options, frames int, monOpts []core.MonitorOption) *core.Log {
	t.Helper()
	mon := core.NewMonitor(monOpts...)
	popts.Monitor = mon
	var frame func(i int) error
	var err error
	switch m.Meta.Task {
	case "classification":
		var cl *pipeline.Classifier
		cl, err = pipeline.NewClassifier(m, popts)
		samples := datasets.SynthImageNet(5555, frames)
		frame = func(i int) error { _, _, err := cl.Classify(samples[i].Image); return err }
	case "detection":
		var det *pipeline.Detector
		det, err = pipeline.NewDetector(m, popts)
		samples := datasets.SynthCOCO(6666, frames)
		frame = func(i int) error { _, _, err := det.Detect(samples[i].Image); return err }
	case "segmentation":
		var sg *pipeline.Segmenter
		sg, err = pipeline.NewSegmenter(m, popts)
		samples := datasets.SynthSegmentation(8888, frames)
		frame = func(i int) error { _, err := sg.Segment(samples[i].Image); return err }
	case "speech":
		var sr *pipeline.SpeechRecognizer
		sr, err = pipeline.NewSpeechRecognizer(m, popts)
		samples := datasets.SynthSpeech(7777, frames)
		frame = func(i int) error { _, _, err := sr.Recognize(samples[i].Wave); return err }
	case "text":
		var tc *pipeline.TextClassifier
		tc, err = pipeline.NewTextClassifier(m, datasets.TokenizeText, popts)
		samples := datasets.SynthIMDB(9999, frames)
		frame = func(i int) error { _, _, err := tc.ClassifyText(samples[i].Text); return err }
	default:
		t.Fatalf("no sequential reference for task %q", m.Meta.Task)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := frame(i); err != nil {
			t.Fatal(err)
		}
	}
	return mon.Log()
}

// TestCaptureMatchesSequential pins Capture's contract for one model per
// task: under full capture, with and without per-layer records, every
// workers × batch combination merges byte-identical (after wall-clock
// normalization) to the sequential loop over the task's evaluation set.
func TestCaptureMatchesSequential(t *testing.T) {
	popts := pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}
	for _, name := range []string{"mobilenetv2-mini", "ssd-mini", "deeplab-mini", "kws-mini-a", "nnlm-mini"} {
		entry, err := zoo.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m := entry.Mobile
		for _, perLayer := range []bool{false, true} {
			opts := []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(perLayer)}
			seq := sequentialCapture(t, m, popts, testFrames, opts)
			normalizeWallClock(seq)
			want := logBytes(t, seq)
			if len(seq.Records) == 0 {
				t.Fatalf("%s: sequential log empty", name)
			}
			for _, workers := range []int{1, 4} {
				for _, batch := range []int{1, 8} {
					l, err := Capture(m, popts, testFrames,
						runner.Options{Workers: workers, BatchFrames: batch, MonitorOptions: opts})
					if err != nil {
						t.Fatal(err)
					}
					normalizeWallClock(l)
					if got := logBytes(t, l); !bytes.Equal(got, want) {
						t.Errorf("%s perLayer=%v workers=%d batch=%d: capture differs from sequential (%d vs %d bytes)",
							name, perLayer, workers, batch, len(got), len(want))
					}
				}
			}
		}

		// nil MonitorOptions replays uninstrumented.
		l, err := Capture(m, popts, testFrames, runner.Options{Workers: 2, BatchFrames: 4})
		if err != nil {
			t.Fatalf("%s uninstrumented: %v", name, err)
		}
		if len(l.Records) != 0 {
			t.Errorf("%s: uninstrumented capture logged %d records", name, len(l.Records))
		}
	}
}

// TestCaptureUnknownTask checks a model whose task has no evaluation set
// fails with an error naming the task.
func TestCaptureUnknownTask(t *testing.T) {
	m := *testModel(t, false)
	m.Meta.Task = "tabular"
	_, err := Capture(&m, pipeline.Options{}, 2, runner.Options{MonitorOptions: monOpts})
	if err == nil || !strings.Contains(err.Error(), `"tabular"`) {
		t.Errorf("unknown task error = %v, want one naming \"tabular\"", err)
	}
}
