package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Every span is recorded by
// the benchmark's own code around a call into a module's public API (or
// around an HTTP handler it mounts), never inside the program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced run; they are written out when
// the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID at the start of a call, so children recorded before
// the call returns can name it as their parent.
func (t *tracer) id() int64 { return t.next.Add(1) }

func (t *tracer) record(id, parent int64, name, trace, detail string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Trace: trace, Detail: detail,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// linked returns the spans with the parents a recording site could not know:
// a gateway or shard handler span joins the span one hop up that carries the
// same X-MLEXray-Trace ID, and the fleet fan-out spans join the span whose
// interval holds them (the gateway's export requests carry no trace ID).
func (t *tracer) linked() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byTrace := map[string]map[string]int64{}
	for _, s := range spans {
		if s.Trace == "" || (s.Name != "ingest.post" && s.Name != "shard.gateway") {
			continue
		}
		if byTrace[s.Trace] == nil {
			byTrace[s.Trace] = map[string]int64{}
		}
		byTrace[s.Trace][s.Name] = s.ID
	}
	enclosing := func(name string, c span) int64 {
		for _, s := range spans {
			if s.Name == name && s.Start <= c.Start && s.End >= c.End {
				return s.ID
			}
		}
		return 0
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			continue
		}
		switch s.Name {
		case "shard.gateway":
			s.Parent = byTrace[s.Trace]["ingest.post"]
		case "ingest.server":
			if id := byTrace[s.Trace]["shard.gateway"]; id != 0 {
				s.Parent = id
			} else {
				s.Parent = byTrace[s.Trace]["ingest.post"]
			}
		case "shard.fleet":
			s.Parent = enclosing("fleet.read", *s)
		case "ingest.fleet_export":
			s.Parent = enclosing("shard.fleet", *s)
		}
	}
	return spans
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStat is the per-name summary written next to the spans file.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	SelfUs float64 `json:"mean_self_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
}

func spanStats(spans []span, self map[int64]int64) []spanStat {
	durs := map[string][]float64{}
	selfSum := map[string]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], us(float64(s.dur())))
		selfSum[s.Name] += us(float64(self[s.ID]))
	}
	var out []spanStat
	for name, d := range durs {
		s := sorted(d)
		var sum float64
		for _, v := range s {
			sum += v
		}
		out = append(out, spanStat{Name: name, Count: len(s), MeanUs: sum / float64(len(s)),
			SelfUs: selfSum[name] / float64(len(s)), P50Us: quantile(s, 0.5), P99Us: quantile(s, 0.99)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes the spans as JSON lines and the per-name self-time
// summary as one JSON document.
func writeSpans(spansPath, summaryPath string, spans []span, stats []spanStat) error {
	f, err := os.Create(spansPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(summaryPath, append(data, '\n'), 0o644)
}

// spanLayers derives the per-layer metrics that come from spans.
func spanLayers(spans []span, self map[int64]int64, p *phase) map[string]float64 {
	var post []float64
	var n = map[string]int{}
	var dur, selfT = map[string]float64{}, map[string]float64{}
	exports := map[int64]int64{} // shard.fleet span → its slowest export
	for _, s := range spans {
		n[s.Name]++
		dur[s.Name] += float64(s.dur())
		selfT[s.Name] += float64(self[s.ID])
		switch s.Name {
		case "ingest.post":
			post = append(post, float64(s.dur())/1e6)
		case "ingest.fleet_export":
			if s.Parent != 0 && s.dur() > exports[s.Parent] {
				exports[s.Parent] = s.dur()
			}
		}
	}
	mean := func(m map[string]float64, name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return m[name] / float64(n[name])
	}
	var merge float64
	for _, s := range spans {
		if s.Name == "shard.fleet" {
			merge += float64(s.dur() - exports[s.ID])
		}
	}
	out := map[string]float64{
		"shard.gateway_self_us":  us(mean(selfT, "shard.gateway")),
		"ingest.server_us":       us(mean(dur, "ingest.server")),
		"ingest.fleet_export_us": us(mean(dur, "ingest.fleet_export")),
	}
	if n["shard.fleet"] > 0 {
		out["shard.fleet_merge_us"] = us(merge / float64(n["shard.fleet"]))
	}
	if len(post) > 0 {
		s := sorted(post)
		out["ingest.post_p50_ms"] = quantile(s, 0.5)
		out["ingest.post_p99_ms"] = quantile(s, 0.99)
	}
	if p.frames > 0 {
		out["core.encode_us"] = us(dur["core.encode"] / float64(p.frames))
		out["ingest.sink_encode_us"] = us(selfT["ingest.sink"] / float64(p.frames))
	}
	if p.collectors > 0 && p.wall > 0 {
		busy := dur["core.encode"] + dur["ingest.sink"]
		out["runner.sink_busy_share"] = busy / (float64(p.wall.Nanoseconds()) * float64(p.collectors))
	}
	return out
}
