package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// testConfig shrinks a workload so one run takes a few seconds.
func testConfig(t *testing.T, workload string) *config {
	t.Helper()
	return &config{
		workload: workload, seed: 1, seconds: 2, procs: 2, workDir: t.TempDir(),
		sz: sizes{replayFrames: 16, liveFrames: 32, fleetReads: 2},
	}
}

func values(rep *report) map[string]float64 {
	out := map[string]float64{}
	for _, m := range rep.Metrics {
		out[m.Name] = m.Value
	}
	return out
}

// TestWorkloadsSmoke runs every workload briefly with its output checks on:
// each must pass them and report every end-to-end metric, none zero.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep, err := execute(testConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			got := values(rep)
			for _, m := range spec.EndToEnd {
				if v, ok := got[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v)", m.Name, v, ok)
				}
			}
			if len(got) != len(spec.EndToEnd) {
				t.Errorf("reported %d end-to-end metrics, BENCHMARK.json lists %d", len(got), len(spec.EndToEnd))
			}
		})
	}
}

// TestTracedRun checks that --trace 1 reports exactly the per-layer metrics
// BENCHMARK.json lists, writes the spans and self-time files, and links the
// collector-tier spans across hops.
func TestTracedRun(t *testing.T) {
	cfg := testConfig(t, "live-int8-fleet")
	cfg.trace, cfg.outDir = true, t.TempDir()
	rep, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("problems: %v", rep.Problems)
	}
	spec := readSpec(t)
	got := values(rep)
	if len(got) != len(spec.PerLayer) {
		t.Errorf("reported %d per-layer metrics, BENCHMARK.json lists %d", len(got), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if _, ok := got[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	for _, name := range []string{"interp.invoke_us", "ops.conv_us", "ingest.post_p50_ms", "shard.gateway_self_us",
		"ingest.server_us", "ingest.wal_fsync_us", "core.decode_us", "ingest.fleet_export_us", "shard.fleet_merge_us", "fleet_read_p90_ms"} {
		if got[name] <= 0 {
			t.Errorf("%s = %v on live-int8-fleet, want > 0", name, got[name])
		}
	}
	data, err := os.ReadFile(rep.SpansFile)
	if err != nil {
		t.Fatal(err)
	}
	var linked int
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatal(err)
		}
		if s.Name == "ingest.server" && s.Parent != 0 {
			linked++
		}
	}
	if linked == 0 {
		t.Error("no shard span is linked to its gateway span")
	}
	if _, err := os.Stat(rep.SelfTimeFile); err != nil {
		t.Error(err)
	}
}

// TestTamperedPredictionFails: a prediction changed before the output check
// must fail the run and count as failed.
func TestTamperedPredictionFails(t *testing.T) {
	cfg := testConfig(t, "replay-full-float")
	cfg.tamperPrediction = true
	rep, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("tampered prediction passed: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

// TestDroppedChunkFails: a chunk the client saw acked but the collector
// never received must fail the checks.
func TestDroppedChunkFails(t *testing.T) {
	cfg := testConfig(t, "live-int8-fleet")
	cfg.dropFinalChunk = true
	rep, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("dropped chunk passed: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram pins BENCHMARK.json's metric names and units to the
// ones the program prints.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	e2e := endToEnd(newPhase(), []float64{1})
	if len(e2e) != len(s.EndToEnd) {
		t.Fatalf("program has %d end-to-end metrics, BENCHMARK.json %d", len(e2e), len(s.EndToEnd))
	}
	for i, m := range e2e {
		if m.Name != s.EndToEnd[i].Name || m.Unit != s.EndToEnd[i].Unit {
			t.Errorf("end-to-end %d: program %s/%s, BENCHMARK.json %s/%s", i, m.Name, m.Unit, s.EndToEnd[i].Name, s.EndToEnd[i].Unit)
		}
	}
	if len(layerSpec) != len(s.PerLayer) {
		t.Fatalf("program has %d per-layer metrics, BENCHMARK.json %d", len(layerSpec), len(s.PerLayer))
	}
	for i, m := range layerSpec {
		if m.name != s.PerLayer[i].Name || m.unit != s.PerLayer[i].Unit {
			t.Errorf("per-layer %d: program %s/%s, BENCHMARK.json %s/%s", i, m.name, m.unit, s.PerLayer[i].Name, s.PerLayer[i].Unit)
		}
	}
}
