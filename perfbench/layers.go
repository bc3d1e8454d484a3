package main

import (
	"bytes"
	"strings"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
)

// layerAgg folds the latency records the Monitor writes into each frame —
// the inference latency and the per-layer latencies of Monitor.LayerHook
// (the paper's Table 4 measurement) — grouped by op class.
type layerAgg struct {
	frames                                 int
	invokeNs, convNs, dwNs, denseNs, other float64
}

func (a *layerAgg) add(recs []core.Record) {
	a.frames++
	for i := range recs {
		r := &recs[i]
		if r.Kind != core.KindMetric {
			continue
		}
		if r.Key == core.KeyInferenceLatency {
			a.invokeNs += r.Value
			continue
		}
		if !strings.HasPrefix(r.Key, "layer/") || !strings.HasSuffix(r.Key, "/latency_ns") {
			continue
		}
		switch r.OpType {
		case graph.OpConv2D.String():
			a.convNs += r.Value
		case graph.OpDepthwiseConv2D.String():
			a.dwNs += r.Value
		case graph.OpDense.String():
			a.denseNs += r.Value
		default:
			a.other += r.Value
		}
	}
}

func (a *layerAgg) merge(b *layerAgg) {
	a.frames += b.frames
	a.invokeNs += b.invokeNs
	a.convNs += b.convNs
	a.dwNs += b.dwNs
	a.denseNs += b.denseNs
	a.other += b.other
}

func (a *layerAgg) nodeNs() float64 { return a.convNs + a.dwNs + a.denseNs + a.other }

// layers reports the per-frame figures. The op cost is computed from the
// graph's shapes with ops.EstimateCostBackend, not measured.
func (a *layerAgg) layers(m *graph.Model, out map[string]float64) {
	if a.frames == 0 {
		return
	}
	f := float64(a.frames)
	out["interp.invoke_us"] = us(a.invokeNs / f)
	out["ops.conv_us"] = us(a.convNs / f)
	out["ops.depthwise_us"] = us(a.dwNs / f)
	out["ops.dense_us"] = us(a.denseNs / f)
	out["ops.other_us"] = us(a.other / f)
	macs, bytes := graphCost(m, ops.BackendTiled)
	out["ops.macs_per_frame"] = float64(macs)
	out["ops.bytes_per_frame"] = float64(bytes)
	if kernelNs := (a.convNs + a.dwNs + a.denseNs) / f; kernelNs > 0 {
		out["ops.gmacs_per_s"] = float64(macs) / kernelNs
	}
}

// graphCost sums the MACs and bytes moved (including packed panels) of one
// frame through m under backend.
func graphCost(m *graph.Model, backend ops.Backend) (macs, bytes int64) {
	shapeOf := func(id int) []int { return m.Tensors[id].Shape }
	sizeOf := func(id int) int { return m.Tensors[id].DType.Size() }
	for i := range m.Nodes {
		n := &m.Nodes[i]
		c := ops.EstimateCostBackend(n, ops.KindOf(n, m.Tensors), backend, shapeOf, sizeOf)
		macs += c.MACs
		bytes += c.Bytes + c.PackBytes
	}
	return macs, bytes
}

// preprocessNs times pipeline.PreprocessImage over images in a side pass
// and returns the mean per frame.
func preprocessNs(images []*imaging.Image, m *graph.Model) (float64, error) {
	cfg, err := pipeline.CorrectImagePreproc(m.Meta)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, im := range images {
		pipeline.PreprocessImage(im, m.Meta, cfg)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(images)), nil
}

// decodeValidate replays kept chunk bodies through the collector's two
// stages in a side pass — core.ReadLog, then StreamValidator.ConsumeFrame
// against ref — and returns the mean time per chunk of each.
func decodeValidate(bodies [][]byte, ref *core.Log) (decodeNs, validateNs float64, err error) {
	if len(bodies) == 0 {
		return 0, 0, nil
	}
	sv := core.NewStreamValidator(ref, core.DefaultValidateOptions())
	var dec, val time.Duration
	for _, b := range bodies {
		start := time.Now()
		l, err := core.ReadLog(bytes.NewReader(b))
		dec += time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		start = time.Now()
		for _, fr := range byFrame(l.Records) {
			_ = sv.ConsumeFrame(fr[0].Frame, fr) // malformed payloads are the validator's finding, not a benchmark failure
		}
		val += time.Since(start)
	}
	n := float64(len(bodies))
	return float64(dec.Nanoseconds()) / n, float64(val.Nanoseconds()) / n, nil
}

// byFrame splits records (in frame order) into per-frame groups.
func byFrame(recs []core.Record) [][]core.Record {
	var out [][]core.Record
	for start := 0; start < len(recs); {
		end := start
		for end < len(recs) && recs[end].Frame == recs[start].Frame {
			end++
		}
		out = append(out, recs[start:end])
		start = end
	}
	return out
}
