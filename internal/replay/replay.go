// Package replay binds the instrumented pipelines to the parallel replay
// engine and is the single entry point the CLIs (edgerun, refrun, exray)
// and the experiment sweeps share for dataset replays. Capture owns the
// task → evaluation-set mapping — which samples a model of each task
// replays; exray and the sweeps capture both sides of a comparison through
// it, so an edge log and a reference log always cover the same frames.
//
// Classification and detection replay through per-worker batched pipeline
// replicas — B = max(1, BatchFrames) frames per interpreter invoke, with the
// requested kernel backend at every B; segmentation, speech and text replay
// one frame per invoke. Either way the merged telemetry log is
// deterministic, so batching and worker policy live in exactly one place.
package replay

import (
	"fmt"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/pipeline"
	"mlexray/internal/runner"
	"mlexray/internal/tensor"
)

// ValidateFlags rejects nonsensical replay sizing from the CLIs' shared
// -frames/-parallel/-batch flags up front, with a clear message instead of
// a hang or a panic deeper in the engine. All three replay CLIs (edgerun,
// refrun, exray) use the same flag names, so the messages live here once.
func ValidateFlags(frames, parallel, batch int) error {
	if frames < 1 {
		return fmt.Errorf("-frames must be positive (got %d)", frames)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all cores; got %d)", parallel)
	}
	if batch < 1 {
		return fmt.Errorf("-batch must be positive (got %d)", batch)
	}
	return nil
}

// Images projects an image-sample set to the replay input — the shared
// sample-to-frames adapter for the CLIs, sweeps and tests.
func Images(samples []datasets.ImageSample) []*imaging.Image {
	images := make([]*imaging.Image, len(samples))
	for i := range samples {
		images[i] = samples[i].Image
	}
	return images
}

// ClassifyResult is the per-frame outcome a classification replay reports to
// its observer callback.
type ClassifyResult struct {
	// Pred is the predicted class (argmax of the model output).
	Pred int
	// Modeled is the device-model latency projection for the frame's
	// invoke; zero without a device profile.
	Modeled time.Duration
}

// Classification replays images through classifier replicas on the
// parallel replay engine and returns the merged telemetry log. Each worker
// owns a pipeline.Classifier of B = max(1, ropts.BatchFrames) lanes and runs
// every dispatched frame range through one invoke; the merged log is
// byte-identical to a one-lane replay (modulo wall-clock latency values) at
// every B.
//
//   - ropts.MonitorOptions nil replays uninstrumented (accuracy-eval mode):
//     replicas carry no monitor, so the hot path pays no telemetry cost and
//     the returned log is empty. Any non-nil MonitorOptions (even empty)
//     instruments the replicas with shard monitors.
//   - onFrame, when non-nil, observes every frame's result. It runs on
//     worker goroutines: implementations must only write frame-indexed
//     slots or otherwise synchronise.
//
// popts.Monitor is ignored — replicas always use their shard monitor.
func Classification(m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	ropts runner.Options, onFrame func(frame int, r ClassifyResult) error) (*core.Log, error) {
	instrumented := ropts.MonitorOptions != nil
	return runner.ReplayBatched(len(images), func(mon *core.Monitor) (runner.ProcessBatchFunc, error) {
		return classifyWorker(m, workerOptions(popts, instrumented, mon), ropts.BatchFrames, images, onFrame)
	}, ropts)
}

// workerOptions gives one worker's pipeline its monitor shard, or no
// monitor at all when the replay is uninstrumented.
func workerOptions(o pipeline.Options, instrumented bool, mon *core.Monitor) pipeline.Options {
	o.Monitor = nil
	if instrumented {
		o.Monitor = mon
	}
	return o
}

// classifyWorker builds one worker's Classifier of B = max(1, batch) lanes
// and returns the range function that runs it.
func classifyWorker(m *graph.Model, o pipeline.Options, batch int, images []*imaging.Image,
	onFrame func(frame int, r ClassifyResult) error) (runner.ProcessBatchFunc, error) {
	bc, err := pipeline.NewBatchClassifier(m, max(1, batch), o)
	if err != nil {
		return nil, err
	}
	return func(start, end int) error {
		preds, err := bc.ClassifyBatch(images[start:end])
		if err != nil || onFrame == nil {
			return err
		}
		modeled := bc.Interpreter().FrameStats().Modeled
		for j, p := range preds {
			if err := onFrame(start+j, ClassifyResult{Pred: p, Modeled: modeled}); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// DetectResult is the per-frame outcome a detection replay reports to its
// observer callback: the raw class scores [A, C] and box offsets [A, 4]
// (postprocessing — decode/NMS — stays with the caller).
type DetectResult struct {
	Scores *tensor.Tensor
	Boxes  *tensor.Tensor
}

// Detection replays images through detector replicas on the parallel
// replay engine and returns the merged telemetry log. Like Classification,
// each worker owns a pipeline.Detector of B = max(1, ropts.BatchFrames)
// lanes — the two-output head decoded per element through
// interp.Batch.OutputAt — and nil MonitorOptions replays uninstrumented. onFrame runs on worker goroutines; implementations must
// only write frame-indexed slots or otherwise synchronise.
func Detection(m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	ropts runner.Options, onFrame func(frame int, r DetectResult) error) (*core.Log, error) {
	instrumented := ropts.MonitorOptions != nil
	return runner.ReplayBatched(len(images), func(mon *core.Monitor) (runner.ProcessBatchFunc, error) {
		return detectWorker(m, workerOptions(popts, instrumented, mon), ropts.BatchFrames, images, onFrame)
	}, ropts)
}

// detectWorker builds one worker's Detector of B = max(1, batch) lanes
// and returns the range function that runs it.
func detectWorker(m *graph.Model, o pipeline.Options, batch int, images []*imaging.Image,
	onFrame func(frame int, r DetectResult) error) (runner.ProcessBatchFunc, error) {
	bd, err := pipeline.NewBatchDetector(m, max(1, batch), o)
	if err != nil {
		return nil, err
	}
	return func(start, end int) error {
		scores, boxes, err := bd.DetectBatch(images[start:end])
		if err != nil || onFrame == nil {
			return err
		}
		for j := range scores {
			if err := onFrame(start+j, DetectResult{Scores: scores[j], Boxes: boxes[j]}); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// FleetDetection replays images across a heterogeneous simulated device
// fleet through detector replicas — the detection binding of the
// task-agnostic fleet scheduler, mirroring FleetClassification: the shard
// policy splits the frame range, each device's workers run its shard through
// pipeline.Detector replicas of B = max(1, spec.BatchFrames) lanes
// carrying the device's latency profile, and per-device shard logs land in
// FleetResult.DeviceLogs and the per-device sinks. perDevice customizes one
// device's pipeline options (the device-local bug hook); nil fleet
// MonitorOptions replays uninstrumented; popts.Monitor is ignored.
func FleetDetection(m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	fleet *runner.Fleet, perDevice func(dev int, spec runner.DeviceSpec, o *pipeline.Options)) (*runner.FleetResult, error) {
	return fleet.ReplayBatched(len(images), func(dev int, spec runner.DeviceSpec, mon *core.Monitor) (runner.ProcessBatchFunc, error) {
		return detectWorker(m, deviceOptions(popts, fleet, dev, spec, mon, perDevice), spec.BatchFrames, images, nil)
	})
}

// FleetClassification replays images across a heterogeneous simulated
// device fleet: the fleet's shard policy splits the frame range across its
// DeviceSpecs, and every device runs its shard through pipeline.Classifier
// replicas of B = max(1, spec.BatchFrames) lanes carrying that device's
// latency profile. Per-device shard logs land in
// FleetResult.DeviceLogs (and the per-device sinks); the merged log keeps
// the sequential-order determinism contract of Classification.
//
// perDevice, when non-nil, customizes one device's pipeline options after
// the device profile is attached — the hook for injecting a device-local
// configuration (or bug) under test. As with Classification, the fleet's
// MonitorOptions nil replays uninstrumented, and popts.Monitor is ignored.
func FleetClassification(m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	fleet *runner.Fleet, perDevice func(dev int, spec runner.DeviceSpec, o *pipeline.Options)) (*runner.FleetResult, error) {
	return fleet.ReplayBatched(len(images), func(dev int, spec runner.DeviceSpec, mon *core.Monitor) (runner.ProcessBatchFunc, error) {
		return classifyWorker(m, deviceOptions(popts, fleet, dev, spec, mon, perDevice), spec.BatchFrames, images, nil)
	})
}

// Capture replays the first frames samples of the model task's evaluation
// set and returns the merged telemetry log. Each task has one evaluation
// set: SynthImageNet seed 5555 (classification), SynthCOCO 6666
// (detection), SynthSegmentation 8888 (segmentation), SynthSpeech 7777
// (speech) and SynthIMDB 9999 (text, tokenized by datasets.TokenizeText).
// Classification and detection run Classification / Detection;
// segmentation, speech and text run one frame per invoke on per-worker
// pipelines. As with Classification, nil ropts.MonitorOptions replays
// uninstrumented (the returned log is empty) and popts.Monitor is ignored.
func Capture(m *graph.Model, popts pipeline.Options, frames int, ropts runner.Options) (*core.Log, error) {
	switch m.Meta.Task {
	case "classification":
		return Classification(m, popts, Images(datasets.SynthImageNet(5555, frames)), ropts, nil)
	case "detection":
		samples := datasets.SynthCOCO(6666, frames)
		images := make([]*imaging.Image, len(samples))
		for i := range samples {
			images[i] = samples[i].Image
		}
		return Detection(m, popts, images, ropts, nil)
	case "segmentation":
		samples := datasets.SynthSegmentation(8888, frames)
		return perFrame(len(samples), popts, ropts, func(o pipeline.Options) (runner.ProcessFunc, error) {
			sg, err := pipeline.NewSegmenter(m, o)
			if err != nil {
				return nil, err
			}
			return func(i int) error {
				_, err := sg.Segment(samples[i].Image)
				return err
			}, nil
		})
	case "speech":
		samples := datasets.SynthSpeech(7777, frames)
		return perFrame(len(samples), popts, ropts, func(o pipeline.Options) (runner.ProcessFunc, error) {
			sr, err := pipeline.NewSpeechRecognizer(m, o)
			if err != nil {
				return nil, err
			}
			return func(i int) error {
				_, _, err := sr.Recognize(samples[i].Wave)
				return err
			}, nil
		})
	case "text":
		samples := datasets.SynthIMDB(9999, frames)
		return perFrame(len(samples), popts, ropts, func(o pipeline.Options) (runner.ProcessFunc, error) {
			tc, err := pipeline.NewTextClassifier(m, datasets.TokenizeText, o)
			if err != nil {
				return nil, err
			}
			return func(i int) error {
				_, _, err := tc.ClassifyText(samples[i].Text)
				return err
			}, nil
		})
	}
	return nil, fmt.Errorf("replay: model %q has task %q, which has no evaluation set", m.Name, m.Meta.Task)
}

// perFrame replays frames through one-lane pipelines: build makes one
// worker's pipeline from its options (its monitor shard, or none when the
// replay is uninstrumented) and returns the per-frame body.
func perFrame(frames int, popts pipeline.Options, ropts runner.Options,
	build func(o pipeline.Options) (runner.ProcessFunc, error)) (*core.Log, error) {
	instrumented := ropts.MonitorOptions != nil
	return runner.Replay(frames, func(mon *core.Monitor) (runner.ProcessFunc, error) {
		return build(workerOptions(popts, instrumented, mon))
	}, ropts)
}

// deviceOptions derives one fleet device worker's pipeline options: the
// device's latency profile, then the perDevice customization, then the
// worker's monitor shard.
func deviceOptions(popts pipeline.Options, fleet *runner.Fleet, dev int, spec runner.DeviceSpec, mon *core.Monitor,
	perDevice func(dev int, spec runner.DeviceSpec, o *pipeline.Options)) pipeline.Options {
	popts.Device = spec.Profile
	if perDevice != nil {
		perDevice(dev, spec, &popts)
	}
	return workerOptions(popts, fleet.MonitorOptions != nil, mon)
}
