package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host is the machine and state fingerprint recorded with every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	// WALFS is the filesystem type of the directory the collector shards
	// write their WALs into: fsync cost, the widest spread on the upload
	// workloads, depends on it.
	WALFS string `json:"wal_fs"`
}

func fingerprint(walDir string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		WALFS:      fsType(walDir),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Filesystem magic numbers from statfs(2).
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sampler records, every samplePeriod over a timed phase, the process's
// resident set and the machine's cumulative stolen CPU time, so the phase's
// peak RSS and any sub-interval's steal share can be read afterwards.
type sampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	samples    []sample
}

type sample struct {
	at    time.Time
	steal float64 // cumulative stolen CPU seconds, all CPUs
	rss   int64   // resident pages
}

const samplePeriod = 25 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.take()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.take()
				return
			case <-tick.C:
				s.take()
			}
		}
	}()
	return s
}

func (s *sampler) take() {
	x := sample{at: time.Now(), steal: stealSeconds(), rss: residentPages()}
	s.mu.Lock()
	s.samples = append(s.samples, x)
	s.mu.Unlock()
}

// finish stops sampling and returns the peak RSS in MiB.
func (s *sampler) finish() float64 {
	close(s.stop)
	<-s.done
	var peak int64
	for _, x := range s.samples {
		peak = max(peak, x.rss)
	}
	return float64(peak*int64(os.Getpagesize())) / (1 << 20)
}

// stealShare returns the share of the VM's CPU time stolen over the sampled
// span covering [from, to] (widened to the enclosing samples).
func (s *sampler) stealShare(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	lo := sort.Search(n, func(i int) bool { return s.samples[i].at.After(from) }) - 1
	hi := sort.Search(n, func(i int) bool { return !s.samples[i].at.Before(to) })
	lo, hi = max(lo, 0), min(hi, n-1)
	if hi <= lo {
		return 0
	}
	span := s.samples[hi].at.Sub(s.samples[lo].at).Seconds() * float64(runtime.NumCPU())
	return (s.samples[hi].steal - s.samples[lo].steal) / span
}

func residentPages() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	v, _ := strconv.ParseInt(f[1], 10, 64)
	return v
}

// runtimeSample is a snapshot of the Go runtime counters the per-layer
// runtime metrics are deltas of.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// stealSeconds reads the machine-wide CPU time the hypervisor stole from
// this VM (/proc/stat, USER_HZ ticks of 1/100 s): time its vCPUs were
// runnable while the host ran another tenant.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}
