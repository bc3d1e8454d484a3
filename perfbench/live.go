package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/ingest"
	"mlexray/internal/obs"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

const (
	liveDevices = 2
	// liveChunkBytes ships a chunk every 8–9 stats-only frames (about 4 KB
	// each), so per-chunk fixed costs — the HTTP hops and the WAL fsync —
	// dominate what the collector sees. A chunk a little larger than one
	// batch drifts across batch boundaries, which spreads the frames' waits
	// smoothly; a chunk of half a batch split them into two modes and made
	// their median jump between runs.
	liveChunkBytes = 32 << 10
)

// liveW is live-int8-fleet: two single-worker devices replay the int8
// mobilenetv2-mini graph (tiled) with stats-only per-layer capture through
// replay.FleetClassification, each streaming live through its own
// RemoteSink to the gateway in front of the WAL-backed shards, which
// validate against a float reference captured in setup.
type liveW struct {
	cfg    *config
	images []*imaging.Image
	quant  *graph.Model
	ref    *core.Log
	tier   *tier
	names  []string

	// Expected per-device figures, computed offline in prepare.
	wantFrames []int
	wantAgree  []float64

	acked int // chunks acked to the devices, all passes
	passN int
}

func newLive(cfg *config) *liveW {
	return &liveW{cfg: cfg, images: replay.Images(datasets.SynthImageNet(cfg.seed, cfg.sz.liveFrames))}
}

func (w *liveW) setup() error {
	e, err := zoo.Get(modelName)
	if err != nil {
		return err
	}
	w.quant = e.Quant
	if _, err := pipeline.NewBatchClassifier(w.quant, replayBatch, fixedOpts(ops.BackendTiled)); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	w.ref, err = replay.Classification(e.Mobile, fixedOpts(ops.BackendBlocked), w.images,
		runner.Options{Workers: w.cfg.procs, BatchFrames: replayBatch, MonitorOptions: statsCapture()}, nil)
	if err != nil {
		return fmt.Errorf("reference capture: %w", err)
	}
	if w.names, err = balancedNames("edge", liveDevices); err != nil {
		return err
	}
	w.tier, err = bootTier(w.ref, w.cfg.workDir)
	return err
}

func (w *liveW) specs(sinks []core.Sink) []runner.DeviceSpec {
	specs := make([]runner.DeviceSpec, liveDevices)
	for d := range specs {
		specs[d] = runner.DeviceSpec{Workers: 1, BatchFrames: replayBatch}
		if sinks != nil {
			specs[d].Sink = sinks[d]
		}
	}
	return specs
}

// prepare computes each device's expected top-1 agreement offline — int8
// on the blocked backend, which is bit-exact with tiled.
func (w *liveW) prepare(t *tally) error {
	preds := make([]int, len(w.images))
	if _, err := replay.Classification(w.quant, fixedOpts(ops.BackendBlocked), w.images,
		runner.Options{Workers: w.cfg.procs, BatchFrames: replayBatch},
		func(f int, r replay.ClassifyResult) error { preds[f] = r.Pred; return nil }); err != nil {
		return fmt.Errorf("offline int8 replay: %w", err)
	}
	refTop, err := outputArgmax(w.ref)
	if err != nil {
		return err
	}
	assign := runner.Contiguous{}.Assign(len(w.images), w.specs(nil))
	for _, ranges := range assign {
		agree, n := 0, 0
		for _, rg := range ranges {
			for f := rg.Start; f < rg.End; f++ {
				n++
				if preds[f] == refTop[f+1] {
					agree++
				}
			}
		}
		w.wantFrames = append(w.wantFrames, n)
		w.wantAgree = append(w.wantAgree, float64(agree)/float64(n))
	}
	return nil
}

// outputArgmax maps each frame tag of l to its first model output's argmax.
func outputArgmax(l *core.Log) (map[int]int, error) {
	top := map[int]int{}
	for i := range l.Records {
		r := &l.Records[i]
		if r.Key != core.KeyModelOutput {
			continue
		}
		if _, ok := top[r.Frame]; ok {
			continue
		}
		out, err := r.DecodeTensor()
		if err != nil {
			return nil, fmt.Errorf("reference output, frame %d: %w", r.Frame, err)
		}
		top[r.Frame] = out.ArgMax()
	}
	return top, nil
}

// pass replays the image set once across the two devices, from the first
// input to the last chunk acked, and adds its figures to p.
func (w *liveW) pass(tr *tracer, p *phase, t *tally) error {
	w.passN++
	var passID int64
	if tr != nil {
		passID = tr.id()
	}
	sinks := make([]*uploadSink, liveDevices)
	cores := make([]core.Sink, liveDevices)
	vis := make([][]float64, liveDevices)
	aggs := make([]layerAgg, liveDevices)
	for d := range sinks {
		s, err := newUploadSink(w.tier, w.names[d], liveChunkBytes, tr)
		if err != nil {
			return err
		}
		s.onAck = func(ack time.Time, handoffs []time.Time) {
			for _, h := range handoffs {
				vis[d] = append(vis[d], ms(ack.Sub(h)))
			}
		}
		if tr != nil {
			s.parent, s.label, s.agg = passID, "p"+strconv.Itoa(w.passN)+"-"+w.names[d], &aggs[d]
		}
		if w.cfg.dropFinalChunk && w.passN == 1 && d == 0 {
			s.dropAt = w.wantFrames[0]
		}
		sinks[d], cores[d] = s, s
	}
	start := time.Now()
	u := unit{start: start, frames: len(w.images)}
	_, err := replay.FleetClassification(w.quant, fixedOpts(ops.BackendTiled), w.images, &runner.Fleet{
		Devices: w.specs(cores), Policy: runner.Contiguous{}, MonitorOptions: statsCapture(), DiscardLogs: true,
	}, nil)
	var wg sync.WaitGroup
	flushErrs := make([]error, liveDevices)
	if err == nil {
		for d, s := range sinks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				flushErrs[d] = s.Flush()
			}()
		}
		wg.Wait()
	}
	wall := time.Since(start)
	if tr != nil {
		tr.record(passID, 0, "fleet.pass", "p"+strconv.Itoa(w.passN), "", start, start.Add(wall))
	}
	for d, s := range sinks {
		st := s.rs.Stats()
		w.acked += st.Chunks
		t.add(st.Chunks+st.Retries, st.Retries, "upload POSTs retried")
		if flushErrs[d] != nil && err == nil {
			err = flushErrs[d]
		}
		p.bytes += int64(st.WireBytes)
		p.layers["ingest.chunks"] += float64(st.Chunks)
		p.layers["ingest.retries"] += float64(st.Retries)
		u.vis = append(u.vis, vis[d]...)
		p.agg.merge(&aggs[d])
	}
	if err != nil {
		t.add(1, 1, fmt.Sprintf("live pass %d: %v", w.passN, err))
		return err
	}
	u.end = start.Add(wall)
	p.passes = append(p.passes, u)
	p.frames += len(w.images)
	p.wall += wall
	return nil
}

func (w *liveW) measure(d time.Duration, tr *tracer, t *tally) (*phase, error) {
	p := newPhase()
	p.workers, p.collectors = liveDevices, liveDevices
	if err := w.pass(nil, newPhase(), t); err != nil {
		return p, err
	}
	var before map[string]float64
	if tr != nil {
		w.tier.tracer.Store(tr)
		defer w.tier.tracer.Store(nil)
		var err error
		if before, err = w.tier.scrape(); err != nil {
			return p, err
		}
	}
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := w.pass(tr, p, t); err != nil {
			return p, err
		}
		w.readFleet(tr, p, t)
	}
	t.add(p.frames, 0, "")
	if tr != nil {
		after, err := w.tier.scrape()
		if err != nil {
			return p, err
		}
		walLayers(before, after, p.layers)
		if err := w.sidePasses(p); err != nil {
			return p, err
		}
	}
	return p, nil
}

// readFleet issues the pass's GET /fleet reads on the gateway. They run
// between passes, not during them, so the load never holds more than nproc
// connections (one per device).
func (w *liveW) readFleet(tr *tracer, p *phase, t *tally) {
	for i := 0; i < w.cfg.sz.fleetReads; i++ {
		var id int64
		if tr != nil {
			id = tr.id()
		}
		start := time.Now()
		body, err := w.tier.get(w.tier.gwURL + "/fleet")
		end := time.Now()
		if tr != nil {
			tr.record(id, 0, "fleet.read", "p"+strconv.Itoa(w.passN)+"-read"+strconv.Itoa(i), "", start, end)
		}
		ok := err == nil && json.Valid(body)
		t.add(1, btoi(!ok), fmt.Sprintf("GET /fleet: %v", err))
		if ok {
			p.fleetMs = append(p.fleetMs, ms(end.Sub(start)))
		}
	}
}

func (w *liveW) sidePasses(p *phase) error {
	p.agg.layers(w.quant, p.layers)
	pre, err := preprocessNs(w.images, w.quant)
	if err != nil {
		return err
	}
	p.layers["pipeline.preprocess_us"] = us(pre)
	p.nodeNs, p.preNs = p.agg.nodeNs(), pre
	dec, val, err := decodeValidate(w.tier.keptBodies(), w.ref)
	if err != nil {
		return err
	}
	p.layers["core.decode_us"], p.layers["core.validate_us"] = us(dec), us(val)
	return nil
}

// check reads the merged /fleet: both devices are listed with every frame
// they own and the top-1 agreement computed offline, and the shards' chunk
// counters sum to the chunks the devices saw acked.
func (w *liveW) check(t *tally) {
	body, err := w.tier.get(w.tier.gwURL + "/fleet")
	if err != nil {
		t.add(1, 1, fmt.Sprintf("GET /fleet: %v", err))
		return
	}
	var fr ingest.FleetResponse
	if err := json.Unmarshal(body, &fr); err != nil || fr.Report == nil {
		t.add(1, 1, fmt.Sprintf("GET /fleet: undecodable report: %v", err))
		return
	}
	got := map[string]core.FleetDeviceReport{}
	for _, dr := range fr.Report.Devices {
		got[dr.Device] = dr
	}
	for d, name := range w.names {
		dr, ok := got[name]
		t.check(ok && dr.Frames == w.wantFrames[d] && math.Abs(dr.OutputAgreement-w.wantAgree[d]) < 1e-12,
			"/fleet device %s: listed %v, %d frames (want %d), agreement %.6f (want %.6f)",
			name, ok, dr.Frames, w.wantFrames[d], dr.OutputAgreement, w.wantAgree[d])
	}
	m, err := w.tier.scrape()
	if err != nil {
		t.add(1, 1, fmt.Sprintf("scrape: %v", err))
		return
	}
	n := int(obs.SumSeries(m, "mlexray_ingest_chunks_total"))
	t.check(n == w.acked, "shards applied %d chunks, the devices saw %d acked", n, w.acked)
}

func (w *liveW) close() {
	if w.tier != nil {
		w.tier.close()
	}
}
