package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/providers"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// tracer collects the per-layer figures of traced repeats: CPU and
// allocation profiles folded by layer, timing wrappers at the
// authoritative servers and the fleet client, and the GC's CPU share. A
// nil *tracer is an untraced run: every method is then a no-op and no
// wrapper is installed.
type tracer struct {
	cpu   map[string]float64 // sampled CPU nanoseconds per layer, all traced repeats
	alloc map[string]float64 // estimated allocated bytes per layer, all traced repeats
	err   error              // first profile error; fails the run

	// Per-repeat state, reset by the wrap calls and start.
	auth        *authMeter
	client      *timedClient
	prof        bytes.Buffer
	mem0        map[memKey]memCount
	gc0, total0 float64 // CPU seconds at start
}

func newTracer() *tracer {
	return &tracer{cpu: map[string]float64{}, alloc: map[string]float64{}}
}

// wrapAuth re-registers every provider name server and TLD server behind
// a timing wrapper. The root server's handler is unexported and stays
// unwrapped.
func (tr *tracer) wrapAuth(w *providers.World) {
	if tr == nil {
		return
	}
	tr.auth = &authMeter{}
	for _, p := range w.Providers {
		for _, addr := range p.NSAddrs {
			w.Net.RegisterDNS(addr, timedAuth{h: p, m: tr.auth})
		}
	}
	for _, s := range w.TLDs {
		w.Net.RegisterDNS(s.Addr, timedAuth{h: s, m: tr.auth})
	}
}

// wrapClient returns the exchanger the workload engine drives: the fleet
// client itself, or a timing wrapper around it when traced.
func (tr *tracer) wrapClient(c *transport.Client, capacity int) workload.Exchanger {
	if tr == nil {
		return c
	}
	tr.client = &timedClient{c: c, lat: make([]time.Duration, 0, capacity)}
	return tr.client
}

// start begins profiling a repeat's timed region. The caller has just run
// a GC, so the allocation profile is current.
func (tr *tracer) start() {
	if tr == nil {
		return
	}
	tr.mem0 = memProfile()
	tr.gc0, tr.total0 = cpuSeconds()
	tr.prof.Reset()
	if err := pprof.StartCPUProfile(&tr.prof); err != nil && tr.err == nil {
		tr.err = fmt.Errorf("starting CPU profile: %w", err)
	}
}

// stop ends a repeat's timed region, folds its profiles into the
// per-layer totals, and records the repeat's layer counters on r.
func (tr *tracer) stop(r *repeat) {
	if tr == nil {
		return
	}
	pprof.StopCPUProfile()
	if gc, total := cpuSeconds(); total > tr.total0 {
		r.counter("runtime.gc_cpu_pct", 100*(gc-tr.gc0)/(total-tr.total0))
	}
	stacks, err := decodeCPUProfile(tr.prof.Bytes())
	if err != nil && tr.err == nil {
		tr.err = err
	}
	addFolded(tr.cpu, stacks)
	// The GC publishes allocations to the profile, so run one before
	// reading it.
	runtime.GC()
	addFolded(tr.alloc, memDelta(tr.mem0, memProfile()))

	if tr.auth != nil {
		n, busy := tr.auth.queries.Load(), time.Duration(tr.auth.busy.Load())
		r.counter("providers.auth_queries", float64(n))
		r.counter("providers.auth_busy_s", busy.Seconds())
		if n > 0 {
			r.counter("providers.auth_us_per_query", float64(busy.Microseconds())/float64(n))
		}
	}
	if tr.client != nil && len(tr.client.lat) > 0 {
		lat := slices.Clone(tr.client.lat)
		slices.Sort(lat)
		r.counter("transport.exchange_samples", float64(len(lat)))
		r.counter("transport.exchange_p50_us", micros(percentile(lat, 0.50)))
		r.counter("transport.exchange_p99_us", micros(percentile(lat, 0.99)))
	}
	tr.auth, tr.client = nil, nil
}

// cpuSeconds reads the runtime's estimate of the CPU time spent in GC and
// in total so far.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// percentile is the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// authMeter counts authoritative queries and the wall time spent
// answering them, summed over concurrent scan workers.
type authMeter struct {
	queries atomic.Int64
	busy    atomic.Int64 // nanoseconds
}

// authHandler is what every wrapped server implements: providers and TLD
// servers answer at the querying view's time, so the wrapper must keep
// simnet.DNSHandlerAt or pipelined days would read the shared clock.
type authHandler interface {
	simnet.DNSHandler
	simnet.DNSHandlerAt
}

// timedAuth times one authoritative server's answers.
type timedAuth struct {
	h authHandler
	m *authMeter
}

func (t timedAuth) HandleDNS(q *dnswire.Message) *dnswire.Message {
	start := time.Now()
	resp := t.h.HandleDNS(q)
	t.m.record(start)
	return resp
}

func (t timedAuth) HandleDNSAt(q *dnswire.Message, now time.Time) *dnswire.Message {
	start := time.Now()
	resp := t.h.HandleDNSAt(q, now)
	t.m.record(start)
	return resp
}

func (m *authMeter) record(start time.Time) {
	m.busy.Add(int64(time.Since(start)))
	m.queries.Add(1)
}

// timedClient times each exchange of the fleet client the workload
// engine drives. It forwards every optional interface the engine looks
// for on *transport.Client: dropping one would change what the engine
// does (ExchangePreferring, StaleAnswers) or how much it allocates
// (SetReuseAnswers). The engine is its only caller and drives it from
// one goroutine, so lat needs no lock.
type timedClient struct {
	c   *transport.Client
	lat []time.Duration
}

func (t *timedClient) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	start := time.Now()
	resp, err := t.c.Exchange(q)
	t.lat = append(t.lat, time.Since(start))
	return resp, err
}

func (t *timedClient) ExchangePreferring(q *dnswire.Message, pref transport.Protocol) (*dnswire.Message, error) {
	start := time.Now()
	resp, err := t.c.ExchangePreferring(q, pref)
	t.lat = append(t.lat, time.Since(start))
	return resp, err
}

func (t *timedClient) StaleAnswers() uint64 { return t.c.StaleAnswers() }

func (t *timedClient) SetReuseAnswers(on bool) { t.c.SetReuseAnswers(on) }
