package main

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// smallShape keeps the end-to-end tests at a fraction of a second each.
var smallShape = shape{
	worldSize:      150,
	dailyDays:      2,
	hourlyDays:     1,
	servingClients: 500,
	servingQueries: 5000,
}

// TestTimedClientForwardsOptionalInterfaces checks that the exchange
// wrapper satisfies every interface the workload engine looks for on its
// target that *transport.Client satisfies, so wrapping never changes
// which engine path runs.
func TestTimedClientForwardsOptionalInterfaces(t *testing.T) {
	ifaces := []reflect.Type{
		reflect.TypeFor[workload.Exchanger](),
		reflect.TypeFor[interface {
			ExchangePreferring(*dnswire.Message, transport.Protocol) (*dnswire.Message, error)
		}](),
		reflect.TypeFor[interface{ StaleAnswers() uint64 }](),
		reflect.TypeFor[interface{ SetReuseAnswers(bool) }](),
	}
	client := reflect.TypeFor[*transport.Client]()
	wrapper := reflect.TypeFor[*timedClient]()
	for _, it := range ifaces {
		if !client.Implements(it) {
			t.Errorf("*transport.Client no longer implements %v; update this list", it)
		}
		if !wrapper.Implements(it) {
			t.Errorf("*timedClient does not implement %v", it)
		}
	}
}

// fakeAuth records the time each query is answered at.
type fakeAuth struct{ at *time.Time }

func (f fakeAuth) HandleDNS(q *dnswire.Message) *dnswire.Message {
	return f.HandleDNSAt(q, time.Time{})
}

func (f fakeAuth) HandleDNSAt(q *dnswire.Message, now time.Time) *dnswire.Message {
	*f.at = now
	return q
}

// TestTimedAuthKeepsHandlerAt checks that a wrapped authoritative server
// still answers at the querying view's time, not the shared clock's, and
// that the wrapper counts the query.
func TestTimedAuthKeepsHandlerAt(t *testing.T) {
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	view := base.Add(36 * time.Hour)
	net := simnet.New(simnet.NewClock(base))
	addr := netip.MustParseAddr("192.0.2.1")
	var at time.Time
	m := &authMeter{}
	var h simnet.DNSHandler = timedAuth{h: fakeAuth{&at}, m: m}
	if _, ok := h.(simnet.DNSHandlerAt); !ok {
		t.Fatal("timedAuth does not implement simnet.DNSHandlerAt")
	}
	net.RegisterDNS(addr, h)
	q := dnswire.NewQuery(1, "example.com.", dnswire.TypeHTTPS, false)
	if _, err := net.WithClock(simnet.NewClock(view)).QueryDNS(addr, q); err != nil {
		t.Fatal(err)
	}
	if !at.Equal(view) {
		t.Errorf("answered at %v, want the view's time %v", at, view)
	}
	if m.queries.Load() != 1 || m.busy.Load() <= 0 {
		t.Errorf("meter counted %d queries, %dns busy; want 1 and > 0", m.queries.Load(), m.busy.Load())
	}
}

// TestTracingChangesNoOutput runs each workload at a small size serially,
// in parallel, and in parallel with tracing on, and checks that all three
// produce the same digests and that tracing recorded its counters.
func TestTracingChangesNoOutput(t *testing.T) {
	for name, spec := range workloads {
		fn := spec.run
		t.Run(name, func(t *testing.T) {
			p := params{shape: smallShape, workload: name, worldSeed: 3, loadSeed: 5, trace: true}
			ref, err := fn(p, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := fn(p, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := fn(p, 2, tr)
			if err != nil {
				t.Fatal(err)
			}
			if tr.err != nil {
				t.Fatal(tr.err)
			}
			for _, r := range []*repeat{plain, traced} {
				if bad := r.mismatch(ref); bad != "" {
					t.Errorf("output differs from the serial reference: %s", bad)
				}
				if r.ops == 0 || r.failed != 0 {
					t.Errorf("ops=%d failed=%d, want ops > 0 and no failures", r.ops, r.failed)
				}
			}
			if traced.values["providers.auth_queries"] == 0 {
				t.Error("traced repeat counted no authoritative queries")
			}
			if name == "serving-load" && traced.values["transport.exchange_samples"] == 0 {
				t.Error("traced serving-load timed no exchanges")
			}
		})
	}
}

// TestLayerOf pins the attribution rule on fixed stacks.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"crypto/internal/fips140/nistec.p256OrdSqr", "crypto/ecdsa.Verify",
			"repro/internal/dnssec.VerifyRRSIG", "repro/internal/dnssec.(*Validator).Validate",
			"repro/internal/resolver.(*Resolver).Resolve"}, "dnssec"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"time.Now", "main.timedAuth.HandleDNSAt",
			"repro/internal/simnet.(*Network).QueryDNS"}, "simnet"},
		{[]string{"repro/internal/core.runOrdered[...].func1", "repro/internal/scanner.ForEach.func1"}, "core"},
		{[]string{"repro/internal/whois.(*DB).Lookup", "repro/internal/scanner.(*Scanner).ScanNameServers"}, "other"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestSharesSumTo100 checks that the folded shares cover every layer and
// sum to 100%.
func TestSharesSumTo100(t *testing.T) {
	totals := map[string]float64{}
	addFolded(totals, []stack{
		{[]string{"crypto/ecdsa.Verify", "repro/internal/dnssec.VerifyRRSIG"}, 7},
		{[]string{"runtime.gcBgMarkWorker"}, 2},
		{[]string{"repro/internal/dnswire.(*Message).Pack"}, 1},
	})
	sh := shares(totals)
	if len(sh) != len(layers) {
		t.Errorf("%d shares, want one per layer (%d)", len(sh), len(layers))
	}
	var sum float64
	for _, v := range sh {
		sum += v
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("shares sum to %v, want 100 ± 1", sum)
	}
	if sh["dnssec"] != 70 || sh["runtime"] != 20 || sh["dnswire"] != 10 {
		t.Errorf("shares %v, want dnssec 70, runtime 20, dnswire 10", sh)
	}
}

var sink string

// TestDecodeCPUProfile profiles a loop inside dnswire and checks that the
// decoder reads the stacks and the fold charges them to dnswire.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = dnswire.CanonicalName("WWW.Example.COM")
		}
	}
	pprof.StopCPUProfile()
	stacks, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("no samples decoded")
	}
	totals := map[string]float64{}
	addFolded(totals, stacks)
	// The loop's own GC and, under -race, the race runtime land in
	// runtime; everything else is the dnswire call.
	if sh := shares(totals); sh["dnswire"] == 0 || sh["dnswire"]+sh["runtime"] < 99 {
		t.Errorf("shares %v, want dnswire and runtime only", sh)
	}
	if _, err := decodeCPUProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

var msgSink []*dnswire.Message

// TestMemDeltaFoldsAllocations checks that allocations made between two
// profile reads are charged to the package that made them.
func TestMemDeltaFoldsAllocations(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before := memProfile()
	msgSink = nil
	for i := 0; i < 2000; i++ {
		msgSink = append(msgSink, dnswire.NewQuery(uint16(i), "example.com.", dnswire.TypeHTTPS, true))
	}
	runtime.GC()
	totals := map[string]float64{}
	addFolded(totals, memDelta(before, memProfile()))
	if sh := shares(totals); sh["dnswire"] < 50 {
		t.Errorf("dnswire alloc share %.1f%%, want most (shares %v)", sh["dnswire"], sh)
	}
}
