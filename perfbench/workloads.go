package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/providers"
	"repro/internal/transport"
	"repro/internal/workload"
)

// shape sizes the workloads.
type shape struct {
	worldSize      int // Tranco list size of the generated world
	dailyDays      int // daily-fleet campaign length
	hourlyDays     int // hourly-ech campaign length (24 hour contexts each)
	servingClients int // serving-load client population
	servingQueries int // serving-load query budget
}

// benchShape keeps one repeat at a few seconds on a 2-core host, so a
// run measures several repeats and reports their median.
var benchShape = shape{
	worldSize:      2000,
	dailyDays:      14,
	hourlyDays:     3,
	servingClients: 100_000,
	servingQueries: 500_000,
}

// The fleet shape of the fleet workloads: the ROADMAP bench shape.
const (
	fleetFrontends = 4
	fleetMix       = "mixed"
	fleetStrategy  = "race"
)

var (
	// dailyStart puts the window after the NS-scan and connectivity-probe
	// start dates, so every per-day stage runs.
	dailyStart = time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	// hourlyStart is the paper's §4.4.2 rotation week.
	hourlyStart = time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
)

// defaultSeed is the seed of every input --seed does not set.
const defaultSeed = 7

// workloadSpec is one workload: its repeat function, and which input
// --seed sets. The campaigns scan the world, so the world is their input;
// serving-load's input is its client population, replayed against the
// world of defaultSeed.
type workloadSpec struct {
	run        func(p params, workers int, tr *tracer) (*repeat, error)
	seedsWorld bool
}

var workloads = map[string]workloadSpec{
	"daily-fleet":  {run: dailyFleet, seedsWorld: true},
	"hourly-ech":   {run: hourlyECH, seedsWorld: true},
	"serving-load": {run: servingLoad},
}

// fleetShape parses the frontend mix and strategy every fleet workload uses.
func fleetShape() (transport.Mix, transport.StrategyKind, error) {
	mix, err := transport.ParseMix(fleetMix)
	if err != nil {
		return mix, 0, err
	}
	strategy, err := transport.ParseStrategy(fleetStrategy)
	return mix, strategy, err
}

// dailyFleet is the paper's longitudinal campaign: RunDaily through a
// mixed-protocol racing fleet, then the store export and the server-side
// tables. One op is one domain scan (apex or www, per day).
func dailyFleet(p params, workers int, tr *tracer) (*repeat, error) {
	mix, strategy, err := fleetShape()
	if err != nil {
		return nil, err
	}
	r := newRepeat(p, tr)
	t := time.Now()
	c, err := core.NewCampaign(core.CampaignConfig{
		Size: p.worldSize, Seed: p.worldSeed,
		Start: dailyStart, End: dailyStart.AddDate(0, 0, p.dailyDays-1), StepDays: 1,
		DayWorkers:   workers,
		DoHFrontends: fleetFrontends, TransportMix: mix, TransportStrategy: strategy,
	})
	if err != nil {
		return nil, fmt.Errorf("daily-fleet: new campaign: %w", err)
	}
	c.Scanner.Concurrency = workers
	r.stage("providers.build_world_s", t)
	tr.wrapAuth(c.World)
	q0 := c.World.Net.QueryCount()

	if !r.begin() {
		return r, nil
	}
	t = time.Now()
	if err := c.RunDaily(); err != nil {
		return nil, fmt.Errorf("daily-fleet: run: %w", err)
	}
	r.stage("core.run_daily_s", t)
	store, err := exportStore(r, c.Store)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	tables := dailyTables(c.Store)
	r.stage("analysis.tables_s", t)
	r.end()

	for _, kind := range []string{"apex", "www"} {
		for _, day := range c.Store.Days(kind) {
			snap, _ := c.Store.SnapshotFor(kind, day)
			r.ops += uint64(snap.Total)
		}
	}
	r.digest("store", store)
	r.digest("tables", []byte(tables))
	r.counter("simnet.queries", float64(c.World.Net.QueryCount()-q0))
	r.counter("dataset.store_bytes", float64(len(store)))
	return r, nil
}

// hourlyECH is the §4.4.2 rotation experiment: hourly scans of the ECH
// population with direct stub queries (no fleet), then the store export
// and the rotation table. One op is one stored ECH observation.
func hourlyECH(p params, workers int, tr *tracer) (*repeat, error) {
	r := newRepeat(p, tr)
	t := time.Now()
	c, err := core.NewCampaign(core.CampaignConfig{
		Size: p.worldSize, Seed: p.worldSeed, HourWorkers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("hourly-ech: new campaign: %w", err)
	}
	c.Scanner.Concurrency = workers
	r.stage("providers.build_world_s", t)
	tr.wrapAuth(c.World)
	q0 := c.World.Net.QueryCount()

	if !r.begin() {
		return r, nil
	}
	t = time.Now()
	c.RunHourlyECH(hourlyStart, p.hourlyDays)
	r.stage("core.run_hourly_ech_s", t)
	store, err := exportStore(r, c.Store)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	tables := analysis.ECHRotation(c.Store).Table().Format()
	r.stage("analysis.tables_s", t)
	r.end()

	r.ops = uint64(len(c.Store.ECHObservations()))
	r.digest("store", store)
	r.digest("tables", []byte(tables))
	r.counter("simnet.queries", float64(c.World.Net.QueryCount()-q0))
	r.counter("dataset.store_bytes", float64(len(store)))
	return r, nil
}

// servingLoad replays a Zipf client population through a mixed-protocol
// racing fleet over one recursor pair, as fast as the CPU allows: an open
// loop on the virtual clock, so the figure is throughput, not lateness.
// One op is one client query.
func servingLoad(p params, _ int, tr *tracer) (*repeat, error) {
	mix, strategy, err := fleetShape()
	if err != nil {
		return nil, err
	}
	r := newRepeat(p, tr)
	t := time.Now()
	c, err := core.NewCampaign(core.CampaignConfig{
		Size: p.worldSize, Seed: p.worldSeed,
		DoHFrontends: fleetFrontends, TransportMix: mix, TransportStrategy: strategy,
	})
	if err != nil {
		return nil, fmt.Errorf("serving-load: new campaign: %w", err)
	}
	r.stage("providers.build_world_s", t)
	tr.wrapAuth(c.World)
	c.World.Clock.Set(dailyStart.Add(12 * time.Hour))
	target := tr.wrapClient(c.Fleet.Client, p.servingQueries)
	t = time.Now()
	eng, err := workload.New(workload.Config{
		Clients: p.servingClients, Seed: p.loadSeed,
		Domains:  c.World.Tranco.ListFor(dailyStart),
		Duration: 24 * time.Hour, MaxQueries: p.servingQueries,
		Mix: mix,
	}, c.World.Clock, target)
	if err != nil {
		return nil, fmt.Errorf("serving-load: new engine: %w", err)
	}
	r.stage("workload.new_s", t)
	q0 := c.World.Net.QueryCount()

	if !r.begin() {
		return r, nil
	}
	t = time.Now()
	sum := eng.Run()
	r.stage("workload.run_s", t)
	r.end()

	r.ops = sum.Queries
	r.failed = sum.Errors
	r.digest("engine", []byte(fmt.Sprintf("%016x", sum.Digest)))
	r.counter("simnet.queries", float64(c.World.Net.QueryCount()-q0))
	r.counter("workload.stub_hit_ratio", ratio(sum.StubHits, sum.Queries))
	r.counter("workload.fleet_exchanges", float64(sum.FleetExchanges))
	fs := c.Fleet.TotalStats()
	r.counter("transport.cache_hit_ratio", ratio(fs.CacheHits, fs.Served))
	ss := c.Fleet.Client.StrategyStats()
	r.counter("transport.attempts_per_exchange", ratio(ss.Attempts, ss.Exchanges))
	r.counter("transport.wasted", ss.WasteRate())
	return r, nil
}

// exportStore writes the store's JSON export, timed as its own stage.
func exportStore(r *repeat, st *dataset.Store) ([]byte, error) {
	t := time.Now()
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("exporting store: %w", err)
	}
	r.stage("dataset.write_json_s", t)
	return buf.Bytes(), nil
}

// dailyTables renders the paper's server-side tables from a daily store,
// in the order cmd/reproduce prints them.
func dailyTables(st *dataset.Store) string {
	phase1, phase2 := analysis.OverlappingSets(st)
	tables := analysis.Adoption(st).Tables()
	tables = append(tables,
		analysis.NSCategories(st, nil).Table("dynamic"),
		analysis.NSCategories(st, phase2).Table("overlapping"),
		analysis.NonCFProviders(st, nil).Table(10),
		analysis.Intermittency(st).Table(),
		analysis.DefaultVsCustom(st, nil).Table("dynamic"),
		analysis.DefaultVsCustom(st, phase2).Table("overlapping"),
		analysis.Table5(analysis.ProviderParams(st, "Google"), analysis.ProviderParams(st, "GoDaddy")),
		analysis.SvcParams(st, "apex").Table("apex"),
		analysis.SvcParams(st, "www").Table("www"),
		analysis.ALPN(st, "apex", phase2, providers.H3Draft29SunsetDate).Table(),
		analysis.ALPN(st, "www", phase2, providers.H3Draft29SunsetDate).Table(),
		analysis.MismatchDurations(st, "apex").Table(),
		analysis.Connectivity(st).Table(),
		analysis.ECHDeployment(st, nil).Table(),
		analysis.SignedECH(st, nil).Table(),
	)
	tables = append(tables, analysis.HintUsage(st, "apex").Tables()...)
	tables = append(tables, analysis.Signed(st, nil).Tables("dynamic")...)
	stats := append(analysis.RankDistributions(st, phase1), analysis.NonCFRankings(st))
	tables = append(tables, analysis.RankTable("Fig 8/9: rank distributions", stats...))
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// hexSum is the sha256 of b in hex.
func hexSum(b []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(b))
}
