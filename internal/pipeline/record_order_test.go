package pipeline_test

import (
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/dsp"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/models"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/zoo"
)

type recordShape struct {
	key  string
	kind core.RecordKind
}

// frameRecordOrder is the per-frame telemetry contract every pipeline
// emits: the orientation reading (when the pipeline logs one), the
// preprocessing capture, each node's output and latency in node order, then
// the invoke's latency, its modeled latency and the model output.
func frameRecordOrder(m *graph.Model, sensor bool) []recordShape {
	var want []recordShape
	if sensor {
		want = append(want, recordShape{core.KeySensorOrientation, core.KindSensor})
	}
	want = append(want, recordShape{core.KeyPreprocessOutput, core.KindStats})
	for _, n := range m.Nodes {
		want = append(want,
			recordShape{core.LayerOutputKey(n.Name), core.KindStats},
			recordShape{core.LayerLatencyKey(n.Name), core.KindMetric})
	}
	return append(want,
		recordShape{core.KeyInferenceLatency, core.KindMetric},
		recordShape{core.KeyInferenceModeled, core.KindMetric},
		recordShape{core.KeyModelOutput, core.KindTensor})
}

// TestPipelineRecordOrder pins the exact per-frame record sequence of all
// five pipelines over two frames, with per-layer capture, a device latency
// model and an orientation sensor attached. Only the classifier logs the
// sensor reading.
func TestPipelineRecordOrder(t *testing.T) {
	opts := func(mon *core.Monitor) pipeline.Options {
		return pipeline.Options{
			Resolver:    ops.NewOptimized(ops.Fixed()),
			Monitor:     mon,
			Device:      device.Pixel4(),
			Orientation: &device.OrientationSensor{Degrees: 90},
		}
	}
	cases := []struct {
		name   string
		model  *graph.Model
		sensor bool
		frame  func(m *graph.Model, mon *core.Monitor) (func() error, error)
	}{
		{"classifier", models.MobileNetV1Mini(99), true, func(m *graph.Model, mon *core.Monitor) (func() error, error) {
			cl, err := pipeline.NewClassifier(m, opts(mon))
			im := imaging.NewImage(64, 64, 3)
			return func() error { _, _, err := cl.Classify(im); return err }, err
		}},
		{"detector", models.SSDMini(99), false, func(m *graph.Model, mon *core.Monitor) (func() error, error) {
			det, err := pipeline.NewDetector(m, opts(mon))
			im := imaging.NewImage(48, 48, 3)
			return func() error { _, _, err := det.Detect(im); return err }, err
		}},
		{"segmenter", models.DeepLabMini(99), false, func(m *graph.Model, mon *core.Monitor) (func() error, error) {
			sg, err := pipeline.NewSegmenter(m, opts(mon))
			im := imaging.NewImage(32, 32, 3)
			return func() error { _, err := sg.Segment(im); return err }, err
		}},
		{"speech", models.KWSMini(99, "t", "log-global"), false, func(m *graph.Model, mon *core.Monitor) (func() error, error) {
			sr, err := pipeline.NewSpeechRecognizer(m, opts(mon))
			wave := dsp.SynthTone(1024, []float64{0.1}, []float64{1}, 0)
			return func() error { _, _, err := sr.Recognize(wave); return err }, err
		}},
		{"text", models.NNLMMini(99, datasets.TextSeqLen, datasets.TextVocabSize), false, func(m *graph.Model, mon *core.Monitor) (func() error, error) {
			tc, err := pipeline.NewTextClassifier(m, datasets.TokenizeText, opts(mon))
			return func() error { _, _, err := tc.ClassifyText("a good movie"); return err }, err
		}},
	}
	const frames = 2
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mon := core.NewMonitor(core.WithPerLayer(true))
			step, err := tc.frame(tc.model, mon)
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < frames; f++ {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			want := frameRecordOrder(tc.model, tc.sensor)
			recs := mon.Log().Records
			if len(recs) != frames*len(want) {
				t.Fatalf("%d records, want %d per frame × %d frames", len(recs), len(want), frames)
			}
			for i, r := range recs {
				w, frame := want[i%len(want)], 1+i/len(want)
				if r.Key != w.key || r.Kind != w.kind || r.Frame != frame {
					t.Fatalf("record %d = {%s %s frame %d}, want {%s %s frame %d}",
						i, r.Key, r.Kind, r.Frame, w.key, w.kind, frame)
				}
			}
		})
	}
}

// TestClassifierBackendReachesModeledLatency: the kernel backend option
// reaches the classifier's interpreter, so an int8 model's modeled frame
// latency on a device profile differs between the tiled and blocked
// backends.
func TestClassifierBackendReachesModeledLatency(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	im := datasets.SynthImageNet(5555, 1)[0].Image
	modeled := func(b ops.Backend) float64 {
		mon := core.NewMonitor()
		cl, err := pipeline.NewClassifier(entry.Quant, pipeline.Options{
			Resolver: ops.NewOptimized(ops.Fixed()), Monitor: mon, Device: device.Pixel4(), Backend: b,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Classify(im); err != nil {
			t.Fatal(err)
		}
		vals := mon.Log().MetricValues(core.KeyInferenceModeled)
		if len(vals) != 1 {
			t.Fatalf("%d modeled latency records, want 1", len(vals))
		}
		return vals[0]
	}
	tiled, blocked := modeled(ops.BackendTiled), modeled(ops.BackendBlocked)
	if tiled == blocked {
		t.Errorf("tiled and blocked backends model the same frame latency %.0f ns", tiled)
	}
}
