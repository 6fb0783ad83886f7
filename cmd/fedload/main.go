// Command fedload drives the federated query tier under load and
// reports what the paper's ETL operators would watch: per-class P50
// and P99 latency, routing precision (fraction of planned shards that
// actually held answers), and scaling across cluster sizes.
//
// For every partition scheme × shard count it builds an in-process
// cluster of follower shards over one generated world, waits for
// catch-up, then fires a fixed, seeded query mix through concurrent
// workers. The first -verify queries of each class are also checked
// bit-for-bit against fed.Reference, the raw-chain oracle; any
// divergence is fatal.
//
// With -bench the same numbers are additionally emitted in `go test
// -bench` line format on stdout (tables move to stderr), so the run
// can be piped straight into cmd/benchjson:
//
//	go run ./cmd/fedload -scale paper -bench | go run ./cmd/benchjson -scale paper
//
// With -mttr the load sweep is replaced by the follower MTTR
// experiment: for every cluster size, shard 0 is killed and the time
// until the supervised cluster re-converges to the source tip is
// measured — once with cold re-ingest (the restarted shard's durable
// store is wiped, so it rebuilds from genesis through the fsynced WAL
// path) and once with checkpoint-resume (the store reopens its sealed
// segments and WAL tail and re-tails only what it missed). The table
// in EXPERIMENTS.md §"Follower MTTR" is generated this way.
//
// Typical use:
//
//	go run ./cmd/fedload -scale small -shards 1,2,4 -queries 64
//	go run ./cmd/fedload -scale small -shards 1,2,4,8 -mttr -bench
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/fed"
)

func main() {
	var (
		scale = flag.String("scale", "small", "world scale: small (~1/20) or paper (~44k hotspots)")
		seed  = flag.Uint64("seed", 7, "world and query-mix seed")
		o     options
	)
	flag.StringVar(&o.shards, "shards", "1,2,4,8", "comma-separated cluster sizes to sweep")
	flag.StringVar(&o.partitions, "partitions", "height,region", "comma-separated partition schemes")
	flag.IntVar(&o.queries, "queries", 64, "queries per class per topology")
	flag.IntVar(&o.concurrency, "concurrency", 4, "concurrent query workers")
	flag.IntVar(&o.verify, "verify", 8, "queries per class checked against the raw-chain reference (0 disables)")
	flag.BoolVar(&o.bench, "bench", false, "emit go-bench lines on stdout for cmd/benchjson")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-shard timeout")
	flag.BoolVar(&o.mttr, "mttr", false, "run the follower MTTR experiment (kill + measured re-convergence, cold vs resume) instead of the load sweep")
	flag.IntVar(&o.trials, "trials", 3, "kill/recover trials per MTTR cell (median reported)")
	flag.Parse()

	var cfg peoplesnet.WorldConfig
	switch *scale {
	case "small":
		cfg = peoplesnet.SmallWorld(*seed)
	case "paper":
		cfg = peoplesnet.PaperWorld(*seed)
	default:
		fmt.Fprintf(os.Stderr, "fedload: unknown -scale %q (want small or paper)\n", *scale)
		os.Exit(1)
	}
	o.scale = *scale
	// Human-readable reporting goes to stdout, or to stderr when -bench
	// claims stdout for machine-readable lines.
	out := os.Stdout
	if o.bench {
		out = os.Stderr
	}
	if err := run(out, cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "fedload:", err)
		os.Exit(1)
	}
}

// options carries fedload's flags; scale only labels the report.
type options struct {
	scale              string
	shards, partitions string
	queries            int
	concurrency        int
	verify             int
	bench              bool
	timeout            time.Duration
	mttr               bool
	trials             int
}

// run generates the world, loads it into the one upstream store every
// cluster follows, and runs the load sweep or the MTTR experiment,
// reporting to out.
func run(out io.Writer, cfg peoplesnet.WorldConfig, o options) error {
	genStart := time.Now()
	world, err := peoplesnet.Simulate(cfg)
	if err != nil {
		return err
	}
	c := world.Chain
	blocks := c.Blocks()
	var txns int64
	for _, b := range blocks {
		txns += int64(len(b.Txns))
	}
	fmt.Fprintf(out, "fedload: scale=%s seed=%d blocks=%d txns=%d tip=%d gen=%s\n",
		o.scale, cfg.Seed, len(blocks), txns, c.Height(), time.Since(genStart).Round(time.Millisecond))
	up := etl.FromChain(c)

	shardCounts, err := parseInts(o.shards)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}
	if o.mttr {
		return runMTTR(out, up, shardCounts, o.trials, o.bench)
	}
	schemes := strings.Split(o.partitions, ",")

	classes := buildClasses(c, cfg.Seed, o.queries)

	// References are per (class, query-index) and identical across
	// topologies, so compute each lazily once and reuse.
	refs := make(map[string]*fed.Result)
	refFor := func(cl class, qi int) *fed.Result {
		key := fmt.Sprintf("%s/%d", cl.name, qi)
		if r, ok := refs[key]; ok {
			return r
		}
		r := fed.Reference(blocks, cl.queries[qi])
		refs[key] = r
		return r
	}

	for _, scheme := range schemes {
		scheme = strings.TrimSpace(scheme)
		for _, n := range shardCounts {
			var part fed.Partition
			switch scheme {
			case "height":
				part = fed.ByHeight(n, c.Height())
			case "region":
				part = fed.ByRegion(n)
			default:
				return fmt.Errorf("unknown partition scheme %q (want height or region)", scheme)
			}

			buildStart := time.Now()
			cluster := fed.FollowStore(up, part, fed.Options{PerShardTimeout: o.timeout, LagBudget: 64})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			err := cluster.WaitHeight(ctx, c.Height())
			cancel()
			if err != nil {
				cluster.Close()
				return fmt.Errorf("partition=%s shards=%d catch-up: %w", scheme, n, err)
			}
			fmt.Fprintf(out, "\npartition=%s shards=%d (catch-up %s)\n",
				scheme, n, time.Since(buildStart).Round(time.Millisecond))

			tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "  class\tqueries\tP50(µs)\tP99(µs)\tprecision\tverified")
			for _, cl := range classes {
				m, err := runClass(cluster, cl, o.concurrency)
				if err != nil {
					cluster.Close()
					return fmt.Errorf("partition=%s shards=%d class=%s: %w", scheme, n, cl.name, err)
				}
				checked := 0
				for qi := 0; qi < o.verify && qi < len(cl.queries); qi++ {
					res, err := cluster.Query(context.Background(), cl.queries[qi])
					if err != nil {
						cluster.Close()
						return fmt.Errorf("verify %s[%d]: %w", cl.name, qi, err)
					}
					if err := sameResult(cl.queries[qi], res, refFor(cl, qi)); err != nil {
						cluster.Close()
						return fmt.Errorf("partition=%s shards=%d %s[%d] diverges from reference: %w", scheme, n, cl.name, qi, err)
					}
					checked++
				}
				fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%.3f\t%d/%d\n",
					cl.name, len(cl.queries), m.p50.Microseconds(), m.p99.Microseconds(), m.precision, checked, min(o.verify, len(cl.queries)))
				if o.bench {
					name := fmt.Sprintf("BenchmarkFedload/partition=%s/shards=%d/%s", scheme, n, cl.name)
					fmt.Printf("%s-1 \t%d\t%d ns/op\t%d p50-ns\t%d p99-ns\t%.3f precision\n",
						name, len(cl.queries), m.mean.Nanoseconds(), m.p50.Nanoseconds(), m.p99.Nanoseconds(), m.precision)
				}
			}
			tw.Flush()
			cluster.Close()
		}
	}
	return nil
}

// runMTTR measures mean-time-to-recovery: a supervised durable
// cluster is caught up to the tip, shard 0 is killed, and the clock
// runs until WaitHeight sees every shard back at the tip. Two modes
// per cluster size:
//
//   - cold: the ShardStore wipes the shard's directory at every
//     (re)start, so recovery re-ingests the full chain through the
//     fsync-per-append WAL path — the no-checkpoint baseline.
//   - resume: the directory survives the crash; the restarted node
//     reopens sealed segments plus the WAL tail and re-tails only the
//     blocks it missed (none, for a static chain).
//
// The ratio between the two is the value of durable checkpoints.
func runMTTR(out io.Writer, up *etl.Store, shardCounts []int, trials int, bench bool) error {
	if trials < 1 {
		trials = 1
	}
	tip := up.Height()
	fmt.Fprintf(out, "\nfollower MTTR: kill shard 0, median of %d trials, supervised recovery to tip %d\n", trials, tip)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  shards\tcold(ms)\tresume(ms)\tspeedup")
	for _, n := range shardCounts {
		var med [2]time.Duration
		for mi, mode := range []string{"cold", "resume"} {
			base, err := os.MkdirTemp("", "fedload-mttr-")
			if err != nil {
				return err
			}
			d, err := measureMTTR(up, n, mode == "cold", base, trials)
			os.RemoveAll(base)
			if err != nil {
				return fmt.Errorf("shards=%d mode=%s: %w", n, mode, err)
			}
			med[mi] = d
			if bench {
				fmt.Printf("BenchmarkFedMTTR/shards=%d/mode=%s-1 \t%d\t%d ns/op\n", n, mode, trials, d.Nanoseconds())
			}
		}
		fmt.Fprintf(tw, "  %d\t%.1f\t%.1f\t%.1fx\n",
			n, float64(med[0].Microseconds())/1000, float64(med[1].Microseconds())/1000,
			float64(med[0])/float64(med[1]))
	}
	return tw.Flush()
}

// measureMTTR runs the kill/recover trials for one (shard count, mode)
// cell and returns the median recovery time.
func measureMTTR(up *etl.Store, shards int, cold bool, base string, trials int) (time.Duration, error) {
	tip := up.Height()
	part := fed.ByHeight(shards, tip)
	cluster := fed.FollowStore(up, part, fed.Options{
		PerShardTimeout: time.Minute,
		CacheSize:       -1, // recovery must be recomputed, never cache-served
		ShardStore: func(id fed.ShardID) (string, etl.Config) {
			dir := filepath.Join(base, fmt.Sprintf("shard-%d", id))
			if cold {
				// The no-checkpoint baseline: every incarnation starts
				// from an empty directory and re-ingests from genesis.
				os.RemoveAll(dir)
			}
			return dir, etl.Config{}
		},
	})
	defer cluster.Close()
	cluster.Supervise(fed.SupervisorOptions{
		ProbeInterval: 2 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		BackoffMax:    10 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := cluster.WaitHeight(ctx, tip); err != nil {
		return 0, fmt.Errorf("initial catch-up: %w", err)
	}

	durations := make([]time.Duration, 0, trials)
	for t := 0; t < trials; t++ {
		start := time.Now()
		if err := cluster.Kill(0); err != nil {
			return 0, err
		}
		if err := cluster.WaitHeight(ctx, tip); err != nil {
			return 0, fmt.Errorf("trial %d recovery: %w", t, err)
		}
		durations = append(durations, time.Since(start))
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return durations[len(durations)/2], nil
}

// class is one query family of the load mix; its queries are
// generated once and replayed identically on every topology.
type class struct {
	name    string
	queries []fed.Query
}

// buildClasses derives the seeded query mix from the generated chain:
// real actor names, occupied regions, and windows sized to the tip.
func buildClasses(c *chain.Chain, seed uint64, perClass int) []class {
	blocks := c.Blocks()
	tip := c.Height()
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x66656432))

	// Sample actor names and region occupancy from a spread of blocks.
	var actors []string
	seen := map[string]bool{}
	regionHist := make([]int64, fed.NumRegions)
	for i := 0; i < len(blocks); i += 1 + len(blocks)/512 {
		for _, t := range blocks[i].Txns {
			regionHist[fed.RegionOf(t)]++
			etl.ActorsOf(t, func(a string) {
				if a != "" && !seen[a] {
					seen[a] = true
					actors = append(actors, a)
				}
			})
		}
	}
	if len(actors) == 0 {
		actors = []string{"nobody"}
	}
	var busyRegions []int
	for r, n := range regionHist {
		if n > 0 {
			busyRegions = append(busyRegions, r)
		}
	}
	if len(busyRegions) == 0 {
		busyRegions = []int{0}
	}

	// window returns a random height range covering frac of the chain
	// (plus jitter), aligned nowhere in particular — the shard-boundary
	// overlap this produces is exactly what routing precision measures.
	window := func(frac float64) etl.Range {
		w := int64(float64(tip) * frac * (0.6 + rng.Float64()))
		if w < 1 {
			w = 1
		}
		from := rng.Int63n(tip - w + 1)
		return etl.Range{From: from, To: from + w}
	}
	types := []chain.TxnType{
		chain.TxnPoCReceipt, chain.TxnPayment, chain.TxnAddGateway,
		chain.TxnAssertLocation, chain.TxnRewards,
	}

	gen := func(name string, f func() fed.Query) class {
		cl := class{name: name}
		for i := 0; i < perClass; i++ {
			cl.queries = append(cl.queries, f())
		}
		return cl
	}
	return []class{
		gen("count-full", func() fed.Query {
			return fed.Query{Kind: fed.KindCount, Range: etl.All()}
		}),
		gen("mix-full", func() fed.Query {
			return fed.Query{Kind: fed.KindMix, Range: etl.All()}
		}),
		gen("count-type", func() fed.Query {
			return fed.Query{Kind: fed.KindCount, Range: etl.All(),
				Filter: etl.Filter{Types: []chain.TxnType{types[rng.Intn(len(types))]}}}
		}),
		gen("count-window", func() fed.Query {
			return fed.Query{Kind: fed.KindCount, Range: window(0.08)}
		}),
		gen("count-region", func() fed.Query {
			return fed.Query{Kind: fed.KindCount, Range: etl.All(),
				HasRegion: true, Region: busyRegions[rng.Intn(len(busyRegions))]}
		}),
		gen("actor-txns", func() fed.Query {
			return fed.Query{Kind: fed.KindTxns, Range: etl.All(), Limit: 100,
				Filter: etl.Filter{Actors: []string{actors[rng.Intn(len(actors))]}}}
		}),
		gen("txns-window", func() fed.Query {
			return fed.Query{Kind: fed.KindTxns, Range: window(0.05), Limit: 100}
		}),
		gen("topk-actors", func() fed.Query {
			return fed.Query{Kind: fed.KindTopActors, Range: window(0.25), K: 10}
		}),
	}
}

// metrics is one class's latency/precision aggregate on one topology.
type metrics struct {
	mean, p50, p99 time.Duration
	precision      float64
}

// runClass fires the class's queries through concurrent workers and
// aggregates latency and routing precision.
func runClass(cluster *fed.Cluster, cl class, concurrency int) (metrics, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	lat := make([]time.Duration, len(cl.queries))
	prec := make([]float64, len(cl.queries))
	errs := make(chan error, concurrency)
	next := make(chan int)
	go func() {
		for i := range cl.queries {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < concurrency; w++ {
		go func() {
			for i := range next {
				start := time.Now()
				res, err := cluster.Query(context.Background(), cl.queries[i])
				if err != nil {
					errs <- err
					return
				}
				lat[i] = time.Since(start)
				prec[i] = res.Precision()
			}
			errs <- nil
		}()
	}
	for w := 0; w < concurrency; w++ {
		if err := <-errs; err != nil {
			return metrics{}, err
		}
	}

	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	var psum float64
	for _, p := range prec {
		psum += p
	}
	return metrics{
		mean:      sum / time.Duration(len(sorted)),
		p50:       sorted[len(sorted)/2],
		p99:       sorted[len(sorted)*99/100],
		precision: psum / float64(len(prec)),
	}, nil
}

// sameResult compares a federated result against the reference oracle
// bit-for-bit on the fields the query's kind populates.
func sameResult(q fed.Query, got, want *fed.Result) error {
	if len(got.Missing) > 0 {
		return fmt.Errorf("result degraded (missing shards %v)", got.Missing)
	}
	switch q.Kind {
	case fed.KindCount:
		if got.Count != want.Count {
			return fmt.Errorf("count %d, reference %d", got.Count, want.Count)
		}
	case fed.KindMix:
		if len(got.Mix) != len(want.Mix) {
			return fmt.Errorf("mix has %d types, reference %d", len(got.Mix), len(want.Mix))
		}
		for tt, n := range want.Mix {
			if got.Mix[tt] != n {
				return fmt.Errorf("mix[%v] = %d, reference %d", tt, got.Mix[tt], n)
			}
		}
	case fed.KindTopActors:
		if len(got.TopActors) != len(want.TopActors) {
			return fmt.Errorf("top-actors has %d entries, reference %d", len(got.TopActors), len(want.TopActors))
		}
		for i := range want.TopActors {
			if got.TopActors[i] != want.TopActors[i] {
				return fmt.Errorf("top-actors[%d] = %+v, reference %+v", i, got.TopActors[i], want.TopActors[i])
			}
		}
	case fed.KindTxns:
		if len(got.Txns) != len(want.Txns) {
			return fmt.Errorf("page has %d txns, reference %d", len(got.Txns), len(want.Txns))
		}
		for i := range want.Txns {
			g, w := got.Txns[i], want.Txns[i]
			if g.Height != w.Height || g.Seq != w.Seq || g.Hash != w.Hash {
				return fmt.Errorf("txns[%d] = (%d,%d,%s), reference (%d,%d,%s)",
					i, g.Height, g.Seq, g.Hash, w.Height, w.Seq, w.Hash)
			}
		}
		if got.HasMore != want.HasMore || (got.HasMore && got.Next != want.Next) {
			return fmt.Errorf("page continuation (%v,%v), reference (%v,%v)", got.HasMore, got.Next, want.HasMore, want.Next)
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("shard count %d out of range", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
