// Command perfbench is peoplesnet's pipeline benchmark: it times the
// chain → ETL store → live study → federation → explorer pipeline end
// to end on a paper-scale world, and, in a separate traced run, splits
// the cost layer by layer. Layers are measured from outside, by timing
// calls into their public functions and the explorer's HTTP surface.
//
// Run it from the repository root through perfbench/run.sh, which
// builds the explorer and this harness from the tree under test:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// Workloads are explore (HTTP explorer under open-loop load), ingest
// (durable append path with a live study and a 4-shard follower
// cluster) and reproduce (batch reproduction of the paper). The last
// line of standard output is one JSON object: a correctness verdict,
// operations attempted and failed, and every end-to-end metric (trace
// 0) or every per-layer metric (trace 1). README.md in this directory
// documents the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"peoplesnet"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	explorer string // explorer binary built from the tree under test
	work     string // per-run directory for explorer logs, removed at exit
}

// endToEndMetrics are the result line's metrics in an untraced run,
// and perLayerMetrics in a traced one, as BENCHMARK.json names them.
// Every workload reports every one of them; README.md says what each
// means in each workload.
var (
	endToEndMetrics = []string{"setup_s", "latency_ms", "work_s", "peak_rss_mb"}
	perLayerMetrics = append([]string{
		"simnet.generate_s", "simnet.cpu_per_wall", "simnet.alloc_mb", "core.measure_s",
		"trace.overhead_frac", "trace.unaccounted_frac",
	}, shareMetrics()...)
)

// layers are the packages whose share of a traced run is reported.
var layers = []string{"simnet", "chain", "etl", "live", "core", "coverage", "fieldtest", "fed", "explorer"}

func shareMetrics() []string {
	out := make([]string, len(layers))
	for i, l := range layers {
		out[i] = l + ".self_share"
	}
	return out
}

// report accumulates what a workload measured and checked.
type report struct {
	tr    *Tracer
	e2e   map[string]metric
	layer map[string]metric
	// detail holds the workload's own metrics beyond the result line's:
	// printed and recorded, not part of the result line.
	detail    map[string]metric
	start     time.Time
	attempted int64
	failed    int64
	problems  []string
	notes     []string
	digest    string
}

func (r *report) endToEnd(name string, v float64, unit string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
}

func (r *report) perLayer(name string, v float64, unit string) {
	r.layer[name] = metric{Value: v, Unit: unit}
}

func (r *report) more(name string, v float64, unit string) {
	r.detail[name] = metric{Value: v, Unit: unit}
}

// progress notes on standard error how far the run has got, with the
// time since it started.
func (r *report) progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s\n", time.Since(r.start).Seconds(), fmt.Sprintf(format, args...))
}

// check records an oracle failure unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// noteApplyErrs reports transactions the live study's ledger replica
// rejected. The replica starts from a default ledger, while the
// generator runs its ledger with a PoC challenge interval of one
// block, so on some seeds a valid poc_request is rejected (seed 4, for
// one). That is a known defect of the live layer, outside what this
// benchmark judges: it is reported on every run, and the run's verdict
// rests on the oracles that compare outputs.
func noteApplyErrs(r *report, n int64) {
	if n == 0 {
		return
	}
	note := fmt.Sprintf("known defect: live ledger replica rejected %d transaction(s)", n)
	for _, have := range r.notes {
		if have == note {
			return
		}
	}
	r.notes = append(r.notes, note)
}

// worldSeed seeds the one paper-scale world every workload runs on,
// and the §8 field-test configurations. The run's -seed draws only
// the load: requests, arrival times and query windows. Worlds of
// different seeds differ in size by several percent, and field tests
// of different seeds in cost by up to two times; either alone would
// swamp the bounds a run-to-run comparison needs. World 4 is one on
// which the live replica's known defect shows (see noteApplyErrs), so
// every run reports it.
const worldSeed = 4

// runTimeout bounds a run's workload so the process always exits.
const runTimeout = 165 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "explore | ingest | reproduce")
		seed     = flag.Uint64("seed", 1, "world and workload seed")
		seconds  = flag.Int("seconds", 20, "length of the timed load phase")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		explorer = flag.String("explorer", "", "explorer binary (built by run.sh)")
		out      = flag.String("out", ".bench_build/perfbench", "directory for records, spans and per-run files")
	)
	flag.Parse()
	workloads := map[string]func(context.Context, config, *report) error{
		"explore":   explore,
		"ingest":    ingest,
		"reproduce": reproduce,
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload explore|ingest|reproduce -seed N -seconds S -trace 0|1")
		return 2
	}
	if *workload == "explore" && *explorer == "" {
		fmt.Fprintln(os.Stderr, "perfbench: explore needs -explorer")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		explorer: *explorer,
		work:     work,
	}
	r := &report{e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]metric{}, start: time.Now()}
	if cfg.trace {
		r.tr = newTracer()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()

	prov := newProvenance(cfg.seed)
	if err := fn(ctx, cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", cfg.workload)
		return 1
	}
	metrics, want := r.e2e, endToEndMetrics
	if cfg.trace {
		for l, share := range layerShares(r.tr.Spans()) {
			r.perLayer(l+".self_share", share, "ratio")
		}
		metrics, want = r.layer, perLayerMetrics
	}
	if err := checkMetrics(metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := outcome{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	if err := writeRecord(*out, cfg, prov, r, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
		return 1
	}
	printHuman(cfg, prov, r, metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// checkMetrics reports an error unless metrics holds exactly the
// names in want, each a finite number.
func checkMetrics(metrics map[string]metric, want []string) error {
	for _, name := range want {
		m, ok := metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, the result line has %d", len(metrics), len(want))
	}
	return nil
}

// layerShares is each layer's share of a traced run: the self time of
// its spans over the summed duration of the root spans. A layer off the
// workload's path has a share of 0.
func layerShares(spans []Span) map[string]float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for name, d := range selfByName(spans) {
		layer, _, _ := strings.Cut(name, ".")
		self[layer] += d
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
		if total > 0 {
			out[l] = float64(self[l]) / float64(total)
		}
	}
	return out
}

// printHuman prints every metric by name with its unit, the oracle
// verdicts, the result digest and the provenance, ahead of the result
// line.
func printHuman(cfg config, prov provenance, r *report, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	names = names[:0]
	for n := range r.detail {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  detail %-33s %14.4f %s\n", n, r.detail[n].Value, r.detail[n].Unit)
	}
	fmt.Printf("  attempted=%d failed=%d\n", r.attempted, r.failed)
	if r.digest != "" {
		fmt.Printf("  digest %s\n", r.digest)
	}
	for _, p := range r.problems {
		fmt.Printf("  ORACLE FAILED: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	if len(r.problems) == 0 {
		fmt.Println("  oracles: all passed")
	}
	b, _ := json.Marshal(prov)
	fmt.Printf("  provenance %s\n", b)
}

// writeRecord stores the result with its provenance (and, traced, the
// spans) under out/results.
func writeRecord(out string, cfg config, prov provenance, r *report, res outcome) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d-%s", cfg.workload, cfg.seed, b2i(cfg.trace), time.Now().UTC().Format("20060102T150405"))
	rec := map[string]any{
		"workload":   cfg.workload,
		"seconds":    int(cfg.seconds / time.Second),
		"traced":     cfg.trace,
		"provenance": prov,
		"result":     res,
		"end_to_end": r.e2e,
		"per_layer":  r.layer,
		"detail":     r.detail,
		"problems":   r.problems,
		"notes":      r.notes,
		"digest":     r.digest,
	}
	if cfg.trace {
		// Self time per layer call, summed over the run: what each
		// layer cost once its callees are taken out.
		self := map[string]float64{}
		for name, d := range selfByName(r.tr.Spans()) {
			self[name] = d.Seconds()
		}
		rec["self_time_s"] = self
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if cfg.trace {
		return r.tr.WriteFile(filepath.Join(dir, base+".spans.json"))
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// world generates the benchmark's paper-scale world and records the
// simnet layer: wall time, process CPU per wall second, bytes
// allocated.
func world(r *report, parent int32) (*peoplesnet.World, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	sp := r.tr.Begin("simnet.generate", parent, 0)
	w, err := peoplesnet.Simulate(peoplesnet.PaperWorld(worldSeed))
	r.tr.End(sp)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	r.perLayer("simnet.generate_s", wall.Seconds(), "s")
	r.perLayer("simnet.cpu_per_wall", cpu.Seconds()/wall.Seconds(), "ratio")
	r.perLayer("simnet.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MB")
	return w, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's peak resident set (VmHWM) in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssEvery is how often an rssSampler samples.
const rssEvery = 10 * time.Millisecond

// rssSampler tracks the peak of this process's resident set less the
// memory its RAM stores hold. Those bytes stand in for files on a
// tmpfs, whose pages are not part of any process's resident set. A nil
// *rssSampler samples nothing.
type rssSampler struct {
	mu     sync.Mutex
	files  func() int64 // guarded by mu; nil while no store is open
	paused bool         // guarded by mu
	gen    int64        // guarded by mu; counts swaps
	peak   int64        // guarded by mu
	once   sync.Once
	stop   chan struct{}
	done   chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// sample takes one sample, unless a swap pauses sampling or begins
// while it is taken.
func (s *rssSampler) sample() {
	s.mu.Lock()
	files, paused, gen := s.files, s.paused, s.gen
	s.mu.Unlock()
	if paused {
		return
	}
	rss := residentBytes()
	if files != nil {
		rss -= files()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.paused && s.gen == gen {
		s.peak = max(s.peak, rss)
	}
}

// swap pauses sampling while fn runs, and from then on takes the
// bytes that fn's result reports off every sample. In fn the caller
// drops one set of stores and opens the next; memory freed in between
// belongs to neither, so it is not sampled.
func (s *rssSampler) swap(fn func() (files func() int64)) {
	if s == nil {
		fn()
		return
	}
	s.mu.Lock()
	s.files = nil // so the stores being dropped can be freed
	s.paused = true
	s.gen++
	s.mu.Unlock()
	files := fn()
	s.mu.Lock()
	s.files, s.paused = files, false
	s.mu.Unlock()
}

// Stop ends sampling, once, and returns the peak in MB.
func (s *rssSampler) Stop() float64 {
	s.once.Do(func() {
		close(s.stop)
		<-s.done
		s.sample()
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}

// residentBytes is this process's current resident set, or 0 when
// /proc is not there to say.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// missedLimit is the latency recorded for a failed or degraded
// operation: the federation's per-shard timeout, so a failure counts
// as missing any latency limit the benchmark reports.
const missedLimit = 10 * time.Second
