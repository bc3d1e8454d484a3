package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/zoo"
)

// TestRunOneFrameValidation drives the one-shot validation flow end to end
// on a single frame: both replays run on the parallel engine and the report
// renders.
func TestRunOneFrameValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-frames", "1", "-parallel", "2", "-perlayer=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "deployment validation report") {
		t.Errorf("missing report header:\n%s", out)
	}
	if !strings.Contains(out, "output agreement") {
		t.Errorf("missing agreement line:\n%s", out)
	}
}

// TestRunCatchesInjectedBug checks the flow flags a channel-arrangement bug
// on a small replay.
func TestRunCatchesInjectedBug(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frame validation sweep")
	}
	var buf bytes.Buffer
	if err := run([]string{"-frames", "4", "-bug", "channel", "-fixed"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "channel-arrangement") {
		t.Errorf("channel bug not flagged:\n%s", buf.String())
	}
}

// TestRunEveryTask drives the one-shot validation flow on a model of each
// non-classification task: every zoo task replays its evaluation set.
func TestRunEveryTask(t *testing.T) {
	for _, model := range []string{"ssd-mini", "deeplab-mini", "kws-mini-a", "nnlm-mini"} {
		var buf bytes.Buffer
		if err := run([]string{"-model", model, "-fixed", "-frames", "2"}, &buf); err != nil {
			t.Errorf("%s: %v", model, err)
			continue
		}
		if !strings.Contains(buf.String(), "deployment validation report") {
			t.Errorf("%s: missing report:\n%s", model, buf.String())
		}
	}
}

// TestRunFromLogFiles validates pre-captured logs instead of replaying: the
// edge log stored binary, the reference log JSONL, both auto-detected — and
// the rendered report is identical whichever encoding carried the logs.
func TestRunFromLogFiles(t *testing.T) {
	edge, err := captureLog(mustModel(t, "mobilenetv2-mini"), ops.NewOptimized(ops.Fixed()),
		pipeline.BugNormalization, 2, true, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := captureLog(mustModel(t, "mobilenetv2-mini"), ops.NewReference(ops.Fixed()),
		pipeline.BugNone, 2, true, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	write := func(name string, l *core.Log, format core.LogFormat) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := l.Write(f, format); err != nil {
			t.Fatal(err)
		}
		return path
	}

	report := func(edgePath, refPath string) string {
		var buf bytes.Buffer
		if err := run([]string{"-edge-log", edgePath, "-ref-log", refPath}, &buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "deployment validation report") {
			t.Fatalf("missing report:\n%s", out)
		}
		// Strip the per-file preamble (it names paths and formats); the
		// validation report itself must not depend on the encoding.
		return out[strings.Index(out, "ML-EXray"):]
	}

	binRep := report(write("edge.mlxb", edge, core.FormatBinary), write("ref.mlxb", ref, core.FormatBinary))
	jsonRep := report(write("edge.jsonl", edge, core.FormatJSONL), write("ref.jsonl", ref, core.FormatJSONL))
	mixedRep := report(write("edge2.mlxb", edge, core.FormatBinary), write("ref2.jsonl", ref, core.FormatJSONL))
	if binRep != jsonRep || mixedRep != jsonRep {
		t.Errorf("validation reports differ across log encodings:\n-- binary --\n%s\n-- jsonl --\n%s\n-- mixed --\n%s",
			binRep, jsonRep, mixedRep)
	}
	if !strings.Contains(jsonRep, "normalization") {
		t.Errorf("normalization bug not flagged:\n%s", jsonRep)
	}

	// One-sided mode: the edge side comes from the file, the reference side
	// replays — the preamble must describe only the replayed side.
	var buf bytes.Buffer
	edgePath := write("edge3.mlxb", edge, core.FormatBinary)
	if err := run([]string{"-edge-log", edgePath, "-frames", "2", "-parallel", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "edge log: "+edgePath) || !strings.Contains(out, "reference: ") {
		t.Errorf("mixed-mode preamble wrong:\n%s", out)
	}
	if strings.Contains(out, "edge:      ") {
		t.Errorf("mixed mode printed a replay header for the file-loaded edge side:\n%s", out)
	}
}

// TestRunFleetValidation drives the fleet validation flow: a bug injected
// into one device slot only must surface in the fleet report as exactly
// that device flagged.
func TestRunFleetValidation(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-frames", "8", "-fleet", "Pixel4:2:4,Pixel3:1", "-shard", "round-robin",
		"-bug", "normalization", "-bug-device", "0"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fleet validation report") {
		t.Fatalf("missing fleet report:\n%s", out)
	}
	// The flagged-devices summary must name the bugged slot and nothing
	// else; the healthy device's report line must carry no divergence mark.
	if !strings.Contains(out, "flagged devices: d0-Pixel4\n") {
		t.Errorf("flagged-devices line should list exactly d0-Pixel4:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "d1-Pixel3") && strings.Contains(line, "DIVERGES") {
			t.Errorf("healthy device flagged: %q", line)
		}
	}
	// The standard merged-log report still renders ahead of the fleet one.
	if !strings.Contains(out, "deployment validation report") {
		t.Errorf("missing merged report:\n%s", out)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Error("unknown flag should error")
	}
	if err := run([]string{"-resolver", "wat"}, &buf); err == nil {
		t.Error("unknown resolver should error")
	}
	if err := run([]string{"-model", "no-such-model"}, &buf); err == nil {
		t.Error("unknown model should error")
	}
	if err := run([]string{"-edge-log", "no/such/file", "-ref-log", "also/missing"}, &buf); err == nil {
		t.Error("missing log file should error")
	}
	for _, args := range [][]string{
		{"-frames", "0"},
		{"-parallel", "-2"},
		{"-batch", "-1"},
		{"-fleet", "Pixel4:-1"},
		{"-fleet", "Pixel4:1", "-bug-device", "5"},
		{"-fleet", "Pixel4:1", "-edge-log", "some.jsonl"},
		{"-fleet", "Pixel4:1", "-shard", "wat"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v should error", args)
		}
	}
}

// mustModel resolves a zoo model for the file-based validation test.
func mustModel(t *testing.T, name string) *graph.Model {
	t.Helper()
	entry, err := zoo.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return entry.Mobile
}
