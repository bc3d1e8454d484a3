package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/ingest"
	"mlexray/internal/obs"
	"mlexray/internal/shard"
)

// shardCount is the collector ring size behind the gateway.
const shardCount = 2

// keptBodies caps the chunk bodies a traced run keeps for the decode and
// validate side pass.
const keptBodies = 64

// tier is the in-process collector tier of live-int8-fleet:
// shardCount WAL-backed ingest.Server shards behind a shard.Gateway in proxy
// mode, each on its own loopback HTTP listener. The handlers are wrapped so a
// traced run can time them; an untraced run pays one atomic load per
// request.
type tier struct {
	nodes   []*shardNode
	gwURL   string
	servers []*http.Server
	serving sync.WaitGroup
	// load carries the benchmark's requests to the gateway; proxy carries
	// the gateway's requests to the shards.
	load, proxy *http.Transport

	tracer atomic.Pointer[tracer]

	bodyMu sync.Mutex
	bodies [][]byte
}

type shardNode struct {
	name, url string
	srv       *ingest.Server
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
}

// bootTier starts the shards (WALs under dir) and the gateway. ref is the
// reference log every shard validates against.
func bootTier(ref *core.Log, dir string) (*tier, error) {
	t := &tier{load: newTransport(), proxy: newTransport()}
	var addrs []shard.ShardAddr
	for i := 0; i < shardCount; i++ {
		name := fmt.Sprintf("s%d", i)
		walDir := filepath.Join(dir, name)
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			t.close()
			return nil, err
		}
		srv, err := ingest.NewServer(ingest.ServerOptions{Ref: ref, DataDir: walDir})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("shard %s: %w", name, err)
		}
		n := &shardNode{name: name, srv: srv}
		t.nodes = append(t.nodes, n)
		if n.url, err = t.serve(t.timed(srv, name, map[string]string{
			"POST /ingest":      "ingest.server",
			"GET /fleet/export": "ingest.fleet_export",
		})); err != nil {
			t.close()
			return nil, err
		}
		addrs = append(addrs, shard.ShardAddr{Name: name, URL: n.url})
	}
	gw, err := shard.NewGateway(shard.GatewayOptions{Shards: addrs, Client: &http.Client{Transport: t.proxy}})
	if err != nil {
		t.close()
		return nil, err
	}
	if t.gwURL, err = t.serve(t.timed(gw, "gateway", map[string]string{
		"POST /ingest": "shard.gateway",
		"GET /fleet":   "shard.fleet",
	})); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tier) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	t.servers = append(t.servers, hs)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// timed wraps a handler: while a tracer is installed, requests whose
// "METHOD /path" is in names are recorded as spans under the mapped name,
// with the request's X-MLEXray-Trace ID.
func (t *tier) timed(h http.Handler, detail string, names map[string]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.tracer.Load()
		name, ok := names[r.Method+" "+r.URL.Path]
		if tr == nil || !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, start := tr.id(), time.Now()
		h.ServeHTTP(w, r)
		tr.record(id, 0, name, r.Header.Get(obs.TraceHeader), detail, start, time.Now())
	})
}

func (t *tier) close() {
	for _, hs := range t.servers {
		_ = hs.Close() // the benchmark's own listeners; nothing to report
	}
	t.serving.Wait()
	for _, n := range t.nodes {
		_ = n.srv.Close() // WAL files are deleted with the work directory
	}
	t.load.CloseIdleConnections()
	t.proxy.CloseIdleConnections()
}

// client returns the HTTP client a RemoteSink (or the fleet reader, with a
// nil sink) uses to reach the gateway.
func (t *tier) client(s *uploadSink) *http.Client {
	return &http.Client{Transport: &clientRT{t: t, sink: s}}
}

// clientRT is the benchmark-owned RoundTripper behind every RemoteSink: it
// times each upload POST as an ingest.post span (parented to the sink call
// that shipped it) and keeps a sample of chunk bodies for the decode and
// validate side pass.
type clientRT struct {
	t    *tier
	sink *uploadSink
}

func (c *clientRT) RoundTrip(req *http.Request) (*http.Response, error) {
	post := req.Method == http.MethodPost
	if post && c.sink != nil && c.sink.drop.CompareAndSwap(true, false) {
		// The negative test's lost chunk: acked without reaching the gateway.
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Request: req,
			Body: io.NopCloser(strings.NewReader("{}"))}, nil
	}
	tr := c.t.tracer.Load()
	if tr == nil || !post {
		return c.t.load.RoundTrip(req)
	}
	c.t.keepBody(req)
	id, start := tr.id(), time.Now()
	resp, err := c.t.load.RoundTrip(req)
	var parent int64
	device := req.Header.Get("X-MLEXray-Device")
	if c.sink != nil {
		parent = c.sink.cur.Load()
	}
	tr.record(id, parent, "ingest.post", req.Header.Get(obs.TraceHeader), device, start, time.Now())
	return resp, err
}

func (t *tier) keepBody(req *http.Request) {
	t.bodyMu.Lock()
	defer t.bodyMu.Unlock()
	if len(t.bodies) >= keptBodies || req.GetBody == nil {
		return
	}
	rc, err := req.GetBody()
	if err != nil {
		return
	}
	defer rc.Close()
	if data, err := io.ReadAll(rc); err == nil {
		t.bodies = append(t.bodies, data)
	}
}

func (t *tier) keptBodies() [][]byte {
	t.bodyMu.Lock()
	defer t.bodyMu.Unlock()
	return t.bodies
}

// get issues GET url through the load transport and returns the body of a
// 200 answer.
func (t *tier) get(url string) ([]byte, error) {
	resp, err := t.client(nil).Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape sums every shard's /metrics exposition.
func (t *tier) scrape() (map[string]float64, error) {
	all := map[string]float64{}
	for _, n := range t.nodes {
		body, err := t.get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		parsed, err := obs.ParseText(body)
		if err != nil {
			return nil, fmt.Errorf("shard %s metrics: %w", n.name, err)
		}
		obs.MergeParsed(all, parsed)
	}
	return all, nil
}

// walLayers turns the shards' WAL histogram deltas between two scrapes into
// mean per-chunk append and fsync times (program-reported, not measured by
// the benchmark).
func walLayers(before, after map[string]float64, out map[string]float64) {
	for _, h := range []struct{ metric, name string }{
		{"mlexray_wal_append_seconds", "ingest.wal_append_us"},
		{"mlexray_wal_fsync_seconds", "ingest.wal_fsync_us"},
	} {
		n := obs.SumSeries(after, h.metric+"_count") - obs.SumSeries(before, h.metric+"_count")
		sum := obs.SumSeries(after, h.metric+"_sum") - obs.SumSeries(before, h.metric+"_sum")
		if n > 0 {
			out[h.name] = sum / n * 1e6
		}
	}
}

// balancedNames picks device names (prefix-i-k) so that consecutive devices
// land on consecutive shards of the gateway's ring.
func balancedNames(prefix string, n int) ([]string, error) {
	shards := make([]string, shardCount)
	for i := range shards {
		shards[i] = fmt.Sprintf("s%d", i)
	}
	ring, err := shard.NewRing(shards, 0)
	if err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		for k := 0; ; k++ {
			name := fmt.Sprintf("%s-%d-%d", prefix, i, k)
			if ring.Owner(name) == shards[i%shardCount] {
				names[i] = name
				break
			}
		}
	}
	return names, nil
}
