// Package experiments regenerates every table and figure of the paper's
// evaluation (and appendix) against the simulated edge stack. Each
// experiment returns structured rows and offers a text renderer; the root
// bench harness and cmd/benchtab drive them. EXPERIMENTS.md records the
// paper-vs-measured comparison for each.
//
// All dataset sweeps run through internal/replay on the parallel replay
// engine: frames shard across ReplayWorkers workers, each owning a pipeline
// replica, and shard telemetry merges deterministically by frame index — so
// every number in every table is identical to a sequential run while the
// suite scales with the core count. The validation sweeps (Figures 3 and 6,
// the fleet reference, the ablations) capture logs with capture, which is
// replay.Capture: the task's one evaluation set, so an edge and a reference
// log of a task always cover the same samples. Classification and detection
// replays additionally fill several interpreter lanes per invoke: workers
// execute ReplayBatch frames per invoke, amortizing per-node dispatch, with
// telemetry still byte-identical to a one-lane run; segmentation, speech and
// text run one frame per invoke.
package experiments

import (
	"fmt"
	"io"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/graph"
	"mlexray/internal/metrics"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

// EvalFrames is the evaluation-set size for accuracy experiments: large
// enough for stable estimates, small enough to keep the full suite fast.
// Tests reduce it under -short.
var EvalFrames = 120

// ReplayWorkers is the worker-pool size the sweeps hand to the parallel
// replay engine; 0 means GOMAXPROCS. Results are identical for any value.
var ReplayWorkers = 0

// ReplayBatch is the frame-batch size per worker dispatch. Classification
// and detection sweeps run whole batches through single batched interpreter
// invokes; other tasks batch dispatch only. Results are identical for any
// value.
var ReplayBatch = 8

// KernelBackend is the kernel micro-kernel backend accuracy sweeps plan
// their optimized pipelines with (zero value = ops.BackendBlocked); the
// batched replay honours it at every ReplayBatch. Accuracy metrics are
// identical for any bitwise-stable backend and validator-bounded for
// ops.BackendTiled; AblationKernelBackend measures the difference directly.
var KernelBackend ops.Backend

// sweepOptions are the runner options every sweep shares.
func sweepOptions(monOpts []core.MonitorOption) runner.Options {
	return runner.Options{Workers: ReplayWorkers, BatchFrames: ReplayBatch, MonitorOptions: monOpts}
}

// capture replays the first frames samples of the model task's evaluation
// set (replay.Capture) on the sweep pool with full capture, per-layer when
// perLayer is set, and returns the merged telemetry log.
func capture(m *graph.Model, resolver *ops.Resolver, bug pipeline.Bug, frames int, perLayer bool) (*core.Log, error) {
	return replay.Capture(m, pipeline.Options{Resolver: resolver, Bug: bug}, frames,
		sweepOptions([]core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(perLayer)}))
}

// evalClassifierAccuracy measures top-1 accuracy of a model version through
// a pipeline with the given options, sharding frame batches across the
// replay pool on the batched inference path. Per-frame results land in
// frame-indexed slots, so worker scheduling cannot perturb the metric.
// Accuracy evals discard telemetry (nil MonitorOptions), so replicas run
// uninstrumented — no per-frame tensor-stats cost on the hot path.
func evalClassifierAccuracy(m *graph.Model, opts pipeline.Options, n int) (float64, error) {
	opts.Backend = KernelBackend
	samples := datasets.SynthImageNet(5555, n)
	preds := make([]int, len(samples))
	labels := make([]int, len(samples))
	_, err := replay.Classification(m, opts, replay.Images(samples),
		sweepOptions(nil),
		func(i int, r replay.ClassifyResult) error {
			preds[i], labels[i] = r.Pred, samples[i].Label
			return nil
		})
	if err != nil {
		return 0, err
	}
	return metrics.Top1(preds, labels)
}

// fixedOptimized is the resolver an app uses after all kernel fixes — the
// baseline for preprocessing experiments, isolating preprocessing effects
// from kernel defects.
func fixedOptimized() *ops.Resolver { return ops.NewOptimized(ops.Fixed()) }

// classifierZoo resolves the Figure 4a / Figure 5 model list.
func classifierZoo() ([]*zoo.Entry, error) {
	var out []*zoo.Entry
	for _, name := range zoo.ClassifierNames() {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}

func deviceByName(name string) (*device.Profile, error) { return device.ByName(name) }
