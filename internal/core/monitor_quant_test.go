package core_test

import (
	"math"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// TestLayerHookQuantizedStatsAgreeAcrossModes pins the one quantized
// per-layer stats path: on the int8 model, stats-only and full-capture layer
// records carry the same dtype and the same real-unit Stats, and the RMS
// derived from the raw values matches the dequantized tensor's.
func TestLayerHookQuantizedStatsAgreeAcrossModes(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	images := datasets.SynthImageNet(5555, 2)
	layers := func(mode core.CaptureMode) []core.Record {
		mon := core.NewMonitor(core.WithCaptureMode(mode), core.WithPerLayer(true))
		cl, err := pipeline.NewClassifier(entry.Quant, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed()), Monitor: mon})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range images {
			if _, _, err := cl.Classify(s.Image); err != nil {
				t.Fatal(err)
			}
		}
		var out []core.Record
		for _, r := range mon.Log().Records {
			if r.LayerName != "" && r.Kind != core.KindMetric {
				out = append(out, r)
			}
		}
		return out
	}
	stats, full := layers(core.CaptureStats), layers(core.CaptureFull)
	if len(stats) != len(full) {
		t.Fatalf("stats mode logged %d layer records, full mode %d", len(stats), len(full))
	}
	quantized, worst := 0, 0.0
	for i, f := range full {
		s := stats[i]
		if s.Key != f.Key || s.DType != f.DType || *s.Stats != *f.Stats {
			t.Errorf("%s: stats mode %s %+v, full mode %s %+v", f.Key, s.DType, *s.Stats, f.DType, *f.Stats)
		}
		if f.QScale == 0 {
			continue
		}
		quantized++
		deq, err := f.DecodeTensor()
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.ComputeStats(deq).RMS
		rel := math.Abs(f.Stats.RMS-want) / math.Max(want, 1e-12)
		if rel > 1e-6 {
			t.Errorf("%s: RMS %g, dequantized tensor's %g (rel err %.2g)", f.Key, f.Stats.RMS, want, rel)
		}
		worst = math.Max(worst, rel)
	}
	if quantized == 0 {
		t.Fatal("no quantized layer records")
	}
	t.Logf("worst RMS relative error %.2g over %d quantized layer records", worst, quantized)
}
