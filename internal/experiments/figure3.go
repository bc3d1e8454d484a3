package experiments

import (
	"io"
	"strings"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/zoo"
)

// Figure3Cell is one (task, issue) cell of the coverage matrix: whether the
// injected issue degraded the pipeline, whether ML-EXray's validation caught
// it, and which assertion (if any) explained it.
type Figure3Cell struct {
	Task      string
	Issue     string
	Agreement float64
	Caught    bool
	Assertion string
}

// Figure3 reproduces the evaluation-summary matrix: ML-EXray applied to
// every task with every applicable issue injected, recording what the
// validation flow detects. Frames per cell are kept small; detection power
// at this scale already separates pass from fail cleanly.
func Figure3(frames int) ([]Figure3Cell, error) {
	if frames <= 0 {
		frames = 6
	}
	var cells []Figure3Cell

	// --- image tasks: classification, detection, segmentation ---
	imageBugs := []pipeline.Bug{pipeline.BugResize, pipeline.BugChannel, pipeline.BugNormalization, pipeline.BugRotation}
	for _, name := range []string{"mobilenetv2-mini", "ssd-mini", "deeplab-mini"} {
		entry, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		task := entry.Mobile.Meta.Task
		refLog, err := capture(entry.Mobile, ops.NewReference(ops.Fixed()), pipeline.BugNone, frames, false)
		if err != nil {
			return nil, err
		}
		for _, bug := range imageBugs {
			edgeLog, err := capture(entry.Mobile, fixedOptimized(), bug, frames, false)
			if err != nil {
				return nil, err
			}
			cells = append(cells, validateCell(task, string(bug), edgeLog, refLog))
		}
		// Quantization issue: the historical kernel build on the quantized
		// model, with per-layer capture for localisation.
		refPL, err := capture(entry.Mobile, ops.NewReference(ops.Fixed()), pipeline.BugNone, frames, true)
		if err != nil {
			return nil, err
		}
		edgePL, err := capture(entry.Quant, ops.NewOptimized(ops.Historical()), pipeline.BugNone, frames, true)
		if err != nil {
			return nil, err
		}
		cells = append(cells, validateCell(task, "quantization", edgePL, refPL))
	}

	// --- speech ---
	kws, err := zoo.Get("kws-mini-a")
	if err != nil {
		return nil, err
	}
	refLog, err := capture(kws.Mobile, ops.NewReference(ops.Fixed()), pipeline.BugNone, frames, false)
	if err != nil {
		return nil, err
	}
	edgeLog, err := capture(kws.Mobile, fixedOptimized(), pipeline.BugSpecNorm, frames, false)
	if err != nil {
		return nil, err
	}
	cells = append(cells, validateCell("speech", "specnorm", edgeLog, refLog))

	// --- text (the §A case: outputs agree even though embeddings differ);
	// both sides run the fixed optimized kernels ---
	nnlm, err := zoo.Get("nnlm-mini")
	if err != nil {
		return nil, err
	}
	refLog, err = capture(nnlm.Mobile, fixedOptimized(), pipeline.BugNone, frames, false)
	if err != nil {
		return nil, err
	}
	edgeLog, err = capture(nnlm.Mobile, fixedOptimized(), pipeline.BugLowercase, frames, false)
	if err != nil {
		return nil, err
	}
	cells = append(cells, validateCell("text", "lowercase", edgeLog, refLog))

	// --- latency straggler: the §4.5(d) scenario — the float model on the
	// x86 emulator, where the ARM conv optimizations don't transfer and
	// convolution layers become order-of-magnitude outliers.
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	stragglerLog, err := captureOnProfile(entry.Mobile, fixedOptimized(), "Emulator-x86", 2)
	if err != nil {
		return nil, err
	}
	// The reference run: the same pipeline on the target's native profile.
	refDevLog, err := captureOnProfile(entry.Mobile, fixedOptimized(), "Pixel4", 2)
	if err != nil {
		return nil, err
	}
	rep, err := core.Validate(stragglerLog, refDevLog, core.DefaultValidateOptions())
	if err != nil {
		return nil, err
	}
	cell := Figure3Cell{Task: "classification", Issue: "latency", Agreement: 1}
	for _, f := range rep.Findings {
		if f.Assertion == "straggler-latency" {
			cell.Caught = true
			cell.Assertion = f.Assertion
		}
	}
	cells = append(cells, cell)
	return cells, nil
}

func validateCell(task, issue string, edge, ref *core.Log) Figure3Cell {
	cell := Figure3Cell{Task: task, Issue: issue}
	rep, err := core.Validate(edge, ref, core.DefaultValidateOptions())
	if err != nil {
		return cell
	}
	cell.Agreement = rep.OutputAgreement
	if rep.OutputAgreement < 0.98 {
		cell.Caught = true
	}
	var names []string
	for _, f := range rep.Findings {
		names = append(names, f.Assertion)
	}
	if len(names) > 0 {
		cell.Caught = true
		cell.Assertion = strings.Join(names, ",")
	}
	return cell
}

// captureOnProfile replays the evaluation set with the named device's
// latency model attached and stats-only per-layer capture, so the straggler
// analysis has per-layer latency records.
func captureOnProfile(m *graph.Model, resolver *ops.Resolver, profile string, frames int) (*core.Log, error) {
	dev, err := deviceByName(profile)
	if err != nil {
		return nil, err
	}
	monOpts := []core.MonitorOption{core.WithCaptureMode(core.CaptureStats), core.WithPerLayer(true)}
	return replay.Capture(m, pipeline.Options{Resolver: resolver, Device: dev}, frames, sweepOptions(monOpts))
}

// RenderFigure3 prints the coverage matrix.
func RenderFigure3(w io.Writer, cells []Figure3Cell) {
	fprintf(w, "Figure 3 — task x issue coverage: what ML-EXray catches\n")
	fprintf(w, "%-16s %-14s %10s %7s  %s\n", "task", "issue", "agreement", "caught", "assertion")
	for _, c := range cells {
		mark := " "
		if c.Caught {
			mark = "X"
		}
		fprintf(w, "%-16s %-14s %10.2f %7s  %s\n", c.Task, c.Issue, c.Agreement, mark, c.Assertion)
	}
}
