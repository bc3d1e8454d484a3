package replay

import (
	"bytes"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/metrics"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

const testFrames = 6

var monOpts = []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}

// testImages returns the evaluation images of the standard test replay.
func testImages(t testing.TB, frames int) []*imaging.Image {
	t.Helper()
	return Images(datasets.SynthImageNet(5555, frames))
}

// testModel fetches a mobilenetv2-mini variant: the float mobile model, or
// the full-integer quantized one when quant is set.
func testModel(t testing.TB, quant bool) *graph.Model {
	t.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	if quant {
		return entry.Quant
	}
	return entry.Mobile
}

// sequentialLog replays the samples the way the pre-runner code did: one
// pipeline, one monitor, frames in order.
func sequentialLog(t testing.TB, m *graph.Model, bug pipeline.Bug, resolver *ops.Resolver, dev *device.Profile) *core.Log {
	t.Helper()
	mon := core.NewMonitor(monOpts...)
	cl, err := pipeline.NewClassifier(m, pipeline.Options{Resolver: resolver, Monitor: mon, Bug: bug, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range testImages(t, testFrames) {
		if _, _, err := cl.Classify(im); err != nil {
			t.Fatal(err)
		}
	}
	return mon.Log()
}

// batchedLog replays the standard samples through the batched inference path
// (pipeline.NewBatchClassifier replicas on runner.ReplayBatched).
func batchedLog(t testing.TB, m *graph.Model, bug pipeline.Bug, resolver *ops.Resolver, workers, batch int, dev *device.Profile) *core.Log {
	t.Helper()
	l, err := Classification(m,
		pipeline.Options{Resolver: resolver, Bug: bug, Device: dev},
		testImages(t, testFrames),
		runner.Options{Workers: workers, BatchFrames: batch, MonitorOptions: monOpts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// normalizeWallClock zeroes wall-clock latency values ("ns" unit), the only
// record content that legitimately differs between two runs — even two
// sequential ones.
func normalizeWallClock(l *core.Log) {
	for i := range l.Records {
		if l.Records[i].Kind == core.KindMetric && l.Records[i].Unit == "ns" {
			l.Records[i].Value = 0
		}
	}
}

func logBytes(t testing.TB, l *core.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchedReplayMatchesSequential is the batched determinism contract:
// for every (batch, workers) combination — including partial final batches
// and batches larger than the dataset — the merged log is byte-identical to
// a sequential single-pipeline replay after wall-clock normalization.
func TestBatchedReplayMatchesSequential(t *testing.T) {
	m := testModel(t, false)
	seq := sequentialLog(t, m, pipeline.BugNone, ops.NewReference(ops.Fixed()), nil)
	normalizeWallClock(seq)
	want := logBytes(t, seq)
	if len(want) == 0 {
		t.Fatal("sequential log empty")
	}
	for _, batch := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			par := batchedLog(t, m, pipeline.BugNone, ops.NewReference(ops.Fixed()), workers, batch, nil)
			normalizeWallClock(par)
			if got := logBytes(t, par); !bytes.Equal(got, want) {
				t.Errorf("batch=%d workers=%d: merged log differs from sequential (%d vs %d bytes)",
					batch, workers, len(got), len(want))
			}
		}
	}
}

// TestBatchedReplayQuantizedMatchesSequential pins the quantized batched
// path — what `edgerun -quant` / `exray -quant` run by default. Rebatching,
// the memoized quant-kernel plans (multipliers, LUTs, requant closures) and
// the dequantizing per-layer capture must all reproduce the sequential
// telemetry byte for byte.
func TestBatchedReplayQuantizedMatchesSequential(t *testing.T) {
	m := testModel(t, true)
	for _, resolver := range []*ops.Resolver{ops.NewOptimized(ops.Historical()), ops.NewReference(ops.Fixed())} {
		seq := sequentialLog(t, m, pipeline.BugNone, resolver, nil)
		normalizeWallClock(seq)
		want := logBytes(t, seq)
		if len(want) == 0 {
			t.Fatal("sequential log empty")
		}
		for _, batch := range []int{2, 8} {
			par := batchedLog(t, m, pipeline.BugNone, resolver, 4, batch, nil)
			normalizeWallClock(par)
			if got := logBytes(t, par); !bytes.Equal(got, want) {
				t.Errorf("%s batch=%d: quantized merged log differs from sequential", resolver.Name(), batch)
			}
		}
	}
}

// TestBatchedReplayHonoursKernelBackend pins Options.Backend through every
// replay batch size: float and int8 classification plus detection, planned
// on the tiled backend with a device latency model, must log byte-identical
// to the sequential tiled pipeline at B = 1 and B = 8. Modeled latencies are
// not normalized away — the device model charges each backend its own
// per-MAC cost, so a batched path that fell back to another backend shows
// up there even where outputs agree.
func TestBatchedReplayHonoursKernelBackend(t *testing.T) {
	tiled := pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed()), Backend: ops.BackendTiled, Device: device.Pixel4()}
	seqOpts := func(mon *core.Monitor) pipeline.Options {
		o := tiled
		o.Monitor = mon
		return o
	}
	check := func(name string, seq *core.Log, replay func(ropts runner.Options) (*core.Log, error)) {
		t.Helper()
		normalizeWallClock(seq)
		want := logBytes(t, seq)
		if len(want) == 0 {
			t.Fatalf("%s: sequential log empty", name)
		}
		for _, batch := range []int{1, 8} {
			l, err := replay(runner.Options{Workers: 2, BatchFrames: batch, MonitorOptions: monOpts})
			if err != nil {
				t.Fatal(err)
			}
			normalizeWallClock(l)
			if got := logBytes(t, l); !bytes.Equal(got, want) {
				t.Errorf("%s batch=%d: tiled replay log differs from the sequential tiled pipeline", name, batch)
			}
		}
	}

	images := testImages(t, testFrames)
	for name, quant := range map[string]bool{"float": false, "int8": true} {
		m := testModel(t, quant)
		mon := core.NewMonitor(monOpts...)
		cl, err := pipeline.NewClassifier(m, seqOpts(mon))
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range images {
			if _, _, err := cl.Classify(im); err != nil {
				t.Fatal(err)
			}
		}
		check(name, mon.Log(), func(ropts runner.Options) (*core.Log, error) {
			return Classification(m, tiled, images, ropts, nil)
		})
	}

	entry, err := zoo.Get("ssd-mini")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthCOCO(6666, testFrames)
	coco := make([]*imaging.Image, len(samples))
	for i := range samples {
		coco[i] = samples[i].Image
	}
	mon := core.NewMonitor(monOpts...)
	det, err := pipeline.NewDetector(entry.Mobile, seqOpts(mon))
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range coco {
		if _, _, err := det.Detect(im); err != nil {
			t.Fatal(err)
		}
	}
	check("detection", mon.Log(), func(ropts runner.Options) (*core.Log, error) {
		return Detection(entry.Mobile, tiled, coco, ropts, nil)
	})
}

// TestBatchedReplayModeledLatencyIdentical repeats the determinism check
// with a device latency model attached. Modeled per-layer and per-frame
// latencies are NOT normalized away — the batched engine must project
// batch-1 node costs so these values match the sequential run exactly.
func TestBatchedReplayModeledLatencyIdentical(t *testing.T) {
	dev := device.Pixel4()
	m := testModel(t, false)
	seq := sequentialLog(t, m, pipeline.BugNone, ops.NewOptimized(ops.Fixed()), dev)
	normalizeWallClock(seq)
	want := logBytes(t, seq)

	modeledRecords := 0
	for _, r := range seq.Records {
		if r.Unit == "ns-modeled" || r.Key == core.KeyInferenceModeled {
			modeledRecords++
		}
	}
	if modeledRecords == 0 {
		t.Fatal("sequential log has no modeled-latency records; test would be vacuous")
	}

	for _, batch := range []int{2, 8} {
		par := batchedLog(t, m, pipeline.BugNone, ops.NewOptimized(ops.Fixed()), 4, batch, dev)
		normalizeWallClock(par)
		if got := logBytes(t, par); !bytes.Equal(got, want) {
			t.Errorf("batch=%d: modeled-latency log differs from sequential", batch)
		}
	}
}

// TestBatchedReplayWithBugMatchesSequential covers the injected-bug
// configuration the validation sweeps replay (preprocessing bug + per-layer
// capture): the batched path must reproduce the bugged telemetry too.
func TestBatchedReplayWithBugMatchesSequential(t *testing.T) {
	m := testModel(t, false)
	seq := sequentialLog(t, m, pipeline.BugNormalization, ops.NewOptimized(ops.Fixed()), nil)
	normalizeWallClock(seq)
	want := logBytes(t, seq)
	par := batchedLog(t, m, pipeline.BugNormalization, ops.NewOptimized(ops.Fixed()), 2, 4, nil)
	normalizeWallClock(par)
	if got := logBytes(t, par); !bytes.Equal(got, want) {
		t.Error("bugged batched replay differs from sequential")
	}
}

// TestBatchedDetectionMatchesSequential is the detection twin of the
// batched determinism contract: batched detector replays — two-output head
// decoded per element through interp.Batch.OutputAt — merge byte-identical
// to sequential frame-at-a-time detection, and report identical raw
// scores/boxes per frame.
func TestBatchedDetectionMatchesSequential(t *testing.T) {
	entry, err := zoo.Get("ssd-mini")
	if err != nil {
		t.Fatal(err)
	}
	m := entry.Mobile
	samples := datasets.SynthCOCO(6666, testFrames)
	images := make([]*imaging.Image, len(samples))
	for i := range samples {
		images[i] = samples[i].Image
	}

	// Sequential ground truth: one detector, one monitor, frames in order.
	mon := core.NewMonitor(monOpts...)
	det, err := pipeline.NewDetector(m, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed()), Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ scores, boxes []float32 }
	want := make([]pair, len(images))
	for i, im := range images {
		s, b, err := det.Detect(im)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pair{scores: s.F, boxes: b.F}
	}
	seq := mon.Log()
	normalizeWallClock(seq)
	wantLog := logBytes(t, seq)
	if len(wantLog) == 0 {
		t.Fatal("sequential detection log empty")
	}

	for _, batch := range []int{2, 4, 8} {
		got := make([]pair, len(images))
		l, err := Detection(m, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, images,
			runner.Options{Workers: 2, BatchFrames: batch, MonitorOptions: monOpts},
			func(i int, r DetectResult) error {
				got[i] = pair{scores: r.Scores.F, boxes: r.Boxes.F}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		normalizeWallClock(l)
		if gotLog := logBytes(t, l); !bytes.Equal(gotLog, wantLog) {
			t.Errorf("batch=%d: batched detection log differs from sequential (%d vs %d bytes)",
				batch, len(gotLog), len(wantLog))
		}
		for i := range want {
			if !floatsEqual(got[i].scores, want[i].scores) || !floatsEqual(got[i].boxes, want[i].boxes) {
				t.Errorf("batch=%d frame %d: batched scores/boxes differ from sequential", batch, i)
			}
		}
	}
}

func floatsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClassificationUninstrumented pins the accuracy-eval contract: nil
// MonitorOptions replays without telemetry and still reports per-frame
// predictions identical to the instrumented sequential run.
func TestClassificationUninstrumented(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthImageNet(5555, testFrames)
	images := make([]*imaging.Image, len(samples))
	labels := make([]int, len(samples))
	for i := range samples {
		images[i] = samples[i].Image
		labels[i] = samples[i].Label
	}

	cl, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())})
	if err != nil {
		t.Fatal(err)
	}
	wantPreds := make([]int, len(images))
	for i, im := range images {
		if wantPreds[i], _, err = cl.Classify(im); err != nil {
			t.Fatal(err)
		}
	}

	for _, batch := range []int{1, 4} {
		preds := make([]int, len(images))
		l, err := Classification(entry.Mobile, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, images,
			runner.Options{Workers: 4, BatchFrames: batch},
			func(i int, r ClassifyResult) error {
				preds[i] = r.Pred
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Records) != 0 {
			t.Errorf("batch=%d: uninstrumented replay logged %d records", batch, len(l.Records))
		}
		for i := range preds {
			if preds[i] != wantPreds[i] {
				t.Errorf("batch=%d frame %d: pred %d, sequential %d", batch, i, preds[i], wantPreds[i])
			}
		}
		if acc, err := metrics.Top1(preds, labels); err != nil || acc < 0 {
			t.Errorf("batch=%d: Top1 = %v, %v", batch, acc, err)
		}
	}
}
