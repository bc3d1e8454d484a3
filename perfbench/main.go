// Command perfbench measures ML-EXray's frame path end to end and layer by
// layer on the host it runs on. It drives two workloads through the
// system's public Go APIs:
//
//   - replay-full-float: offline per-layer validation capture (edge only);
//   - live-int8-fleet: a quantized two-device fleet streaming live to a
//     gateway in front of two WAL-backed collector shards.
//
// Untraced, it prints every end-to-end metric; with --trace 1 it prints every
// per-layer metric, derived from spans the benchmark records around calls
// into each module, plus the tracing overhead. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. Run it from the repository root through the launcher, which
// builds this package from the checkout's sources:
//
//	bash perfbench/run.sh --workload replay-full-float --seed 1 --seconds 10 --trace 0
//
// README.md in this directory documents every workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mlexray/internal/zoo"
)

const modelName = "mobilenetv2-mini"

// setupRuns is how many times a run sets its workload up: once in this
// process and the rest in fresh child processes, so the zoo's per-process
// memo cannot hide the model load. setup_s is their median.
const setupRuns = 5

var workloadNames = []string{"replay-full-float", "live-int8-fleet"}

// sizes are the workload dimensions; tests shrink them.
type sizes struct {
	replayFrames int // images per replay-full-float pass
	liveFrames   int // images per live-int8-fleet pass
	fleetReads   int // GET /fleet reads after each live-int8-fleet pass
}

// defaultSizes: a live pass takes about half a second, so a 20 s run reads
// /fleet more than a hundred times.
var defaultSizes = sizes{replayFrames: 128, liveFrames: 512, fleetReads: 4}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	procs    int    // load concurrency: nproc
	workDir  string // WAL directories; removed when the run ends
	outDir   string // spans and result files ("" writes none)
	probes   bool   // measure setup in child processes too
	sz       sizes

	// Negative-case hooks, set only by tests.
	tamperPrediction bool // replay: corrupt one prediction before the check
	dropFinalChunk   bool // live: ack one final chunk without delivering it
}

type workload interface {
	// setup is the timed set-up: model load from the warm zoo cache,
	// optimize/quantize, planning, reference-log capture, collector boot.
	setup() error
	// prepare is untimed: the expected outputs for the checks.
	prepare(t *tally) error
	// measure runs an untimed warm-up pass, then measures for d.
	measure(d time.Duration, tr *tracer, t *tally) (*phase, error)
	// check verifies the program's outputs after the timed phases.
	check(t *tally)
	close()
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "replay-full-float":
		return newReplay(cfg), nil
	case "live-int8-fleet":
		return newLive(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// quietSteal is the largest share of the VM's CPU time the hypervisor may
// steal during a unit of work for the unit to count as undisturbed.
const quietSteal = 0.02

// unit is one measured pass: its interval, frames and the visible latencies
// of those frames.
type unit struct {
	start, end time.Time
	frames     int
	vis        []float64
}

// phase holds one timed interval's figures.
type phase struct {
	wall time.Duration
	// passes give fps and the visible-latency samples; timed keeps the
	// undisturbed ones.
	passes     []unit
	fps        []float64 // raw rate of every pass, for the record
	rate       float64   // median rate of the undisturbed passes
	visibleMs  []float64 // samples of the undisturbed passes
	quiet      float64   // share of passes that were undisturbed
	fleetMs    []float64
	frames     int
	bytes      int64
	workers    int // replay worker goroutines (core.capture_us)
	collectors int // runner collector goroutines writing a sink
	agg        layerAgg
	nodeNs     float64 // traced: Σ logged node latency
	preNs      float64 // traced: preprocess per frame
	layers     map[string]float64

	peakRSSMiB, allocBytes, gcShare float64
	stealShare                      float64 // stolen share of the VM's CPU time
}

func newPhase() *phase { return &phase{layers: map[string]float64{}} }

// tally counts operations against failures: POSTs that ended non-2xx or
// needed a retry, failed /fleet reads, and frames or reports that failed an
// output check.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	problems          []string
}

func (t *tally) add(attempted, failed int, why string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && len(t.problems) < 20 {
		t.problems = append(t.problems, why)
	}
}

func (t *tally) check(ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	t.add(1, failed, fmt.Sprintf(format, args...))
}

// metric is one printed figure.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Dist  *dist   `json:"dist,omitempty"`
}

// report is one run's full result, written to the results directory.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	// StealShare is the share of the VM's CPU time stolen by the host
	// during the (first) timed phase — the state the figures were taken in;
	// Undisturbed is the share of its passes that fps was taken from.
	StealShare   float64   `json:"steal_share"`
	Undisturbed  float64   `json:"undisturbed_share"`
	Correct      bool      `json:"correct"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	FailRatio    float64   `json:"fail_ratio"`
	Problems     []string  `json:"problems,omitempty"`
	SetupSamples []float64 `json:"setup_samples_s"`
	Metrics      []metric  `json:"metrics"`
	SpansFile    string    `json:"spans_file,omitempty"`
	SelfTimeFile string    `json:"self_time_file,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "timed seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	workRoot := fs.String("work", filepath.Join(".bench_build", "work"), "directory for WALs and scratch state")
	warmZoo := fs.Bool("warm-zoo", false, "internal: fill the zoo disk cache and exit")
	probe := fs.Bool("setup-probe", false, "internal: time one workload set-up and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *warmZoo {
		if _, err := zoo.Get(modelName); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *workloadName == "all" {
		return runAll(args, stdout)
	}
	if !slices.Contains(workloadNames, *workloadName) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (have %s, all)\n", *workloadName, strings.Join(workloadNames, ", "))
		return 2
	}
	workDir, err := makeWorkDir(*workRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer removeAndSync(workDir)
	// Start from a quiet disk: writes and deletions left by earlier runs
	// (the WALs are large, and the root filesystem may discard freed
	// blocks) would otherwise land on this run's set-up and fsyncs.
	syscall.Sync()
	cfg := &config{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1,
		procs: runtime.NumCPU(), workDir: workDir, outDir: *outDir, probes: true, sz: defaultSizes}
	if *probe {
		d, err := timeSetup(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(d, 'g', -1, 64))
		return 0
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := emit(rep, cfg, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func makeWorkDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

// removeAndSync deletes the run's WALs and waits for the deletion to reach
// the disk, so the next run does not inherit the freed-block work.
func removeAndSync(dir string) {
	_ = os.RemoveAll(dir) // scratch state; a leftover is removed by the next run's root
	syscall.Sync()
}

// timeSetup builds a workload, times its set-up and tears it down.
func timeSetup(cfg *config) (float64, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return 0, err
	}
	defer w.close()
	start, steal := time.Now(), stealSeconds()
	if err := w.setup(); err != nil {
		return 0, err
	}
	return effective(start, steal), nil
}

// childSetups warms the zoo disk cache in an untimed child process, then
// times setupRuns-1 set-ups, each in a fresh child process.
func childSetups(cfg *config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	warm := exec.Command(exe, "--warm-zoo")
	warm.Stderr = os.Stderr
	if err := warm.Run(); err != nil {
		return nil, fmt.Errorf("warm zoo cache: %w", err)
	}
	var out []float64
	for i := 0; i < setupRuns-1; i++ {
		c := exec.Command(exe, "--setup-probe", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--work", cfg.workDir)
		c.Stderr = os.Stderr
		b, err := c.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// execute runs one workload: set-up (timed), prepare, the timed phase(s)
// and the output checks.
func execute(cfg *config) (*report, error) {
	var setups []float64
	if cfg.probes {
		var err error
		if setups, err = childSetups(cfg); err != nil {
			return nil, err
		}
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	start, steal := time.Now(), stealSeconds()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, effective(start, steal))

	t := &tally{}
	if err := w.prepare(t); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: fingerprint(cfg.workDir), SetupSamples: setups}
	var base, traced *phase
	tr := newTracer()
	if !cfg.trace {
		base, err = timed(w, d, nil, t)
	} else if base, err = timed(w, d/2, nil, t); err == nil {
		// The untraced half is the overhead baseline; the traced half
		// gives the per-layer figures.
		traced, err = timed(w, d-d/2, tr, t)
	}
	if err != nil {
		t.add(1, 1, err.Error())
	}
	w.check(t)

	rep.Attempted, rep.Failed, rep.Problems = t.attempted, t.failed, t.problems
	if rep.Attempted > 0 {
		rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Correct = rep.Failed == 0 && err == nil
	rep.StealShare, rep.Undisturbed = base.stealShare, base.quiet
	if !cfg.trace {
		rep.Metrics = endToEnd(base, setups)
		return rep, nil
	}
	if traced == nil {
		traced = newPhase()
	}
	spans := tr.linked()
	self := selfTimes(spans)
	rep.Metrics = perLayer(base, traced, spanLayers(spans, self, traced))
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
		rep.SpansFile, rep.SelfTimeFile = stem+".spans.jsonl", stem+".selftime.json"
		if err := writeSpans(rep.SpansFile, rep.SelfTimeFile, spans, spanStats(spans, self)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// effective returns the seconds since start minus the CPU time stolen from
// the VM since then, spread over its CPUs.
func effective(start time.Time, steal0 float64) float64 {
	wall := time.Since(start).Seconds()
	stolen := (stealSeconds() - steal0) / float64(runtime.NumCPU())
	return wall - min(max(stolen, 0), wall/2)
}

// timed runs w.measure with the process-level instruments around it — RSS
// and steal sampling, the runtime's allocation and GC CPU counters — and
// keeps the passes and samples taken while the hypervisor stole (almost)
// no CPU from the VM: on a shared host a neighbour's burst otherwise reads
// as a change in the program. If too few units are undisturbed it keeps the
// least-disturbed quarter.
func timed(w workload, d time.Duration, tr *tracer, t *tally) (*phase, error) {
	debug.FreeOSMemory()
	smp := startSampler()
	r0, start := readRuntime(), time.Now()
	p, err := w.measure(d, tr, t)
	end := time.Now()
	r1 := readRuntime()
	peak := smp.finish()
	if p == nil {
		p = newPhase()
	}
	p.peakRSSMiB = peak
	p.stealShare = smp.stealShare(start, end)
	var rates []float64
	for _, u := range p.passes {
		rates = append(rates, float64(u.frames)/u.end.Sub(u.start).Seconds())
	}
	p.fps = rates
	if keep := undisturbed(smp, p.passes); len(keep) > 0 {
		var q []float64
		for _, u := range keep {
			q = append(q, float64(u.frames)/u.end.Sub(u.start).Seconds())
			p.visibleMs = append(p.visibleMs, u.vis...)
		}
		p.rate, p.quiet = median(q), float64(len(keep))/float64(len(p.passes))
	}
	p.allocBytes = r1.allocBytes - r0.allocBytes
	if cpu := r1.totalCPU - r0.totalCPU; cpu > 0 {
		p.gcShare = (r1.gcCPU - r0.gcCPU) / cpu
	}
	return p, err
}

// undisturbed returns the units during which at most quietSteal of the
// VM's CPU time was stolen, or the least-disturbed quarter of them when
// fewer than a tenth (or five) qualify.
func undisturbed(smp *sampler, units []unit) []unit {
	type scored struct {
		u     unit
		steal float64
	}
	all := make([]scored, len(units))
	var keep []unit
	for i, u := range units {
		all[i] = scored{u, smp.stealShare(u.start, u.end)}
		if all[i].steal <= quietSteal {
			keep = append(keep, u)
		}
	}
	if len(keep) >= 5 && len(keep)*10 >= len(units) {
		return keep
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].steal < all[j].steal })
	keep = keep[:0]
	for _, a := range all[:(len(all)+3)/4] {
		keep = append(keep, a.u)
	}
	return keep
}

// endToEnd assembles the end-to-end metrics in BENCHMARK.json order. The
// dist shown with fps is of the raw per-pass rates; the one shown with
// visible_p50_ms carries the visible-latency tail (p99 from 1000 samples).
func endToEnd(p *phase, setups []float64) []metric {
	var bpf float64
	if p.frames > 0 {
		bpf = float64(p.bytes) / float64(p.frames)
	}
	vis := describe(p.visibleMs, false)
	s := sorted(p.visibleMs)
	return []metric{
		{"fps", "frames/s", p.rate, describe(p.fps, true)},
		{"visible_p50_ms", "ms", quantile(s, 0.5), vis},
		{"bytes_per_frame", "B", bpf, nil},
		{"peak_rss_mb", "MiB", p.peakRSSMiB, nil},
		{"setup_s", "s", median(setups), describe(setups, false)},
	}
}

// layerSpec lists the per-layer metrics in BENCHMARK.json order. Metrics of
// a layer a workload leaves idle report 0.
var layerSpec = []struct{ name, unit string }{
	{"pipeline.preprocess_us", "us"},
	{"interp.invoke_us", "us"},
	{"ops.conv_us", "us"},
	{"ops.depthwise_us", "us"},
	{"ops.dense_us", "us"},
	{"ops.other_us", "us"},
	{"ops.macs_per_frame", "MAC"},
	{"ops.bytes_per_frame", "B"},
	{"ops.gmacs_per_s", "GMAC/s"},
	{"core.capture_us", "us"},
	{"core.encode_us", "us"},
	{"runner.sink_busy_share", "ratio"},
	{"ingest.sink_encode_us", "us"},
	{"ingest.post_p50_ms", "ms"},
	{"ingest.post_p99_ms", "ms"},
	{"ingest.retries", "count"},
	{"ingest.chunks", "count"},
	{"shard.gateway_self_us", "us"},
	{"ingest.server_us", "us"},
	{"ingest.wal_append_us", "us"},
	{"ingest.wal_fsync_us", "us"},
	{"core.decode_us", "us"},
	{"core.validate_us", "us"},
	{"ingest.fleet_export_us", "us"},
	{"shard.fleet_merge_us", "us"},
	{"visible_p99_ms", "ms"},
	{"fleet_read_p50_ms", "ms"},
	{"fleet_read_p90_ms", "ms"},
	{"runtime.alloc_bytes_per_frame", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"tracing.fps_untraced", "frames/s"},
	{"tracing.fps_traced", "frames/s"},
	{"tracing.overhead_share", "ratio"},
}

// perLayer assembles the per-layer metrics: span-derived and workload
// figures from the traced phase; visible and /fleet read latencies and the
// runtime counters from the untraced phase, which they describe without the
// tracer's own cost; and the tracing overhead between the two.
func perLayer(base, traced *phase, fromSpans map[string]float64) []metric {
	v := map[string]float64{}
	for k, x := range fromSpans {
		v[k] = x
	}
	for k, x := range traced.layers {
		v[k] = x
	}
	if traced.frames > 0 && traced.workers > 0 {
		encodeNs := (v["core.encode_us"] + v["ingest.sink_encode_us"]) * 1e3 * float64(traced.frames)
		worker := float64(traced.wall.Nanoseconds()) * float64(traced.workers)
		v["core.capture_us"] = us((worker - traced.nodeNs - traced.preNs*float64(traced.frames) - encodeNs) / float64(traced.frames))
	}
	f := sorted(base.fleetMs)
	if len(f) > 0 {
		v["fleet_read_p50_ms"], v["fleet_read_p90_ms"] = quantile(f, 0.5), quantile(f, 0.9)
	}
	v["visible_p99_ms"] = quantile(sorted(base.visibleMs), 0.99)
	if base.frames > 0 {
		v["runtime.alloc_bytes_per_frame"] = base.allocBytes / float64(base.frames)
	}
	v["runtime.gc_cpu_share"] = base.gcShare
	fu, ft := base.rate, traced.rate
	v["tracing.fps_untraced"], v["tracing.fps_traced"] = fu, ft
	if fu > 0 {
		v["tracing.overhead_share"] = (fu - ft) / fu
	}
	out := make([]metric, 0, len(layerSpec))
	for _, s := range layerSpec {
		out = append(out, metric{Name: s.name, Unit: s.unit, Value: v[s.name]})
	}
	return out
}

// emit prints the human-readable lines, writes the result file and prints
// the contract's JSON object as the last line.
func emit(rep *report, cfg *config, stdout io.Writer) error {
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	h := rep.Host
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d cpu=%q go=%s wal_fs=%s steal_share=%.3f undisturbed_share=%.2f\n",
		h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.WALFS, rep.StealShare, rep.Undisturbed)
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "metric %-30s %12.6g %-9s", m.Name, m.Value, m.Unit)
		if d := m.Dist; d != nil {
			fmt.Fprintf(w, " median=%.6g", d.Median)
			if d.Tail != "" {
				fmt.Fprintf(w, " %s=%.6g", d.Tail, d.TailValue)
			}
			fmt.Fprintf(w, " n=%d", d.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "checks attempted=%d failed=%d fail_ratio=%g\n", rep.Attempted, rep.Failed, rep.FailRatio)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	if rep.SpansFile != "" {
		fmt.Fprintf(w, "spans %s\nself_time %s\n", rep.SpansFile, rep.SelfTimeFile)
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, btoi(rep.Trace)))
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "result %s\n", path)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range rep.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so one workload's
// heap cannot inflate the next one's peak RSS, and relays their output.
func runAll(args []string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--workload" || a == "-workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") {
			continue
		}
		rest = append(rest, a)
	}
	code := 0
	for _, name := range workloadNames {
		c := exec.Command(exe, append([]string{"--workload", name}, rest...)...)
		c.Stdout, c.Stderr = stdout, os.Stderr
		if err := c.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
			code = 1
		}
	}
	return code
}
