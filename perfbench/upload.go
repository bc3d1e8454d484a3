package main

import (
	"strconv"
	"sync/atomic"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/ingest"
)

// uploadSink wraps one device's ingest.RemoteSink. It timestamps every frame
// handed to the sink and reports, at each chunk ack (a WriteFrame or Flush
// during which the sink's chunk count rose), the handoff times of the frames
// that chunk carried. Traced, it records an ingest.sink span per call, which
// parents the ingest.post spans of the HTTP round trips inside it.
type uploadSink struct {
	rs     *ingest.RemoteSink
	t      *tier
	device string
	onAck  func(ack time.Time, handoffs []time.Time)

	tr     *tracer
	parent int64     // traced: the span of the pass or phase owning this sink
	label  string    // traced: trace-ID prefix for this sink's calls
	agg    *layerAgg // traced: per-layer records seen by the sink
	cur    atomic.Int64

	// dropAt (negative test) drops the chunk holding the dropAt-th frame
	// written; it must be the stream's last chunk, or the collector would
	// see a sequence gap instead of a silently lost chunk.
	dropAt, written int
	drop            atomic.Bool

	handoffs []time.Time
}

func newUploadSink(t *tier, device string, chunkBytes int, tr *tracer) (*uploadSink, error) {
	s := &uploadSink{t: t, device: device, tr: tr}
	rs, err := ingest.NewRemoteSink(ingest.SinkOptions{
		URL: t.gwURL, Device: device, Format: core.FormatBinary,
		ChunkBytes: chunkBytes, Client: t.client(s),
	})
	if err != nil {
		return nil, err
	}
	s.rs = rs
	return s, nil
}

func (s *uploadSink) WriteFrame(frame int, recs []core.Record) error {
	if s.agg != nil {
		s.agg.add(recs)
	}
	if s.written++; s.written == s.dropAt {
		s.drop.Store(true)
	}
	return s.call("f"+strconv.Itoa(frame), func() error { return s.rs.WriteFrame(frame, recs) }, true)
}

func (s *uploadSink) Flush() error {
	return s.call("flush", s.rs.Flush, false)
}

func (s *uploadSink) call(what string, f func() error, handoff bool) error {
	start := time.Now()
	if handoff {
		s.handoffs = append(s.handoffs, start)
	}
	var id int64
	if s.tr != nil {
		id = s.tr.id()
		s.cur.Store(id)
	}
	chunks := s.rs.Chunks()
	err := f()
	end := time.Now()
	if s.tr != nil {
		s.tr.record(id, s.parent, "ingest.sink", s.label+"-"+what, s.device, start, end)
	}
	if s.rs.Chunks() > chunks {
		if s.onAck != nil {
			s.onAck(end, s.handoffs)
		}
		s.handoffs = s.handoffs[:0]
	}
	return err
}
