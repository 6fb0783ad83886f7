package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/fed"
	"peoplesnet/perfbench/countfs"
	"peoplesnet/perfbench/memfs"
)

// ingestShards is the follower cluster's size, the explorer's default.
const ingestShards = 4

// catchupShare is the share of the chain appended as fast as Append
// returns; the rest arrives on a fixed schedule.
const catchupShare = 0.8

// ingest is the write path: the generated chain's blocks re-appended
// into a fresh validating chain.Chain and a durable etl.Open store,
// with a live study attached and a supervised 4-shard durable
// follower cluster tailing the store. Phase 1 appends the first 80%
// of blocks as fast as Append returns, three times, each from a fresh
// world and pipeline; phase 2 paces the rest over the run's seconds
// while one closed-loop reader issues the fedload mix.
// The tip moves every few milliseconds, so the router's result cache
// stays cold by design.
func ingest(ctx context.Context, cfg config, r *report) error {
	var rss *rssSampler
	if r.tr == nil {
		rss = startRSSSampler()
	}
	base, err := ingestPass(ctx, cfg, r, rss)
	if err != nil || r.tr != nil {
		return err
	}
	r.endToEnd("setup_s", base.setup.Seconds(), "s")
	r.endToEnd("latency_ms", base.latency, "ms")
	r.endToEnd("work_s", base.work.Seconds(), "s")
	r.endToEnd("peak_rss_mb", base.peakRSSMB, "MB")
	r.more("ingest_blocks_per_s", base.blocksPerSec, "1/s")
	r.more("fresh_p50_ms", median(base.fresh), "ms")
	r.more("read_p50_ms", median(base.reads), "ms")
	r.more("read_p90_ms", base.readP90, "ms")
	return nil
}

// ingestResult is one pass's end-to-end numbers.
type ingestResult struct {
	// setup is the median time to generate the world and open the
	// pipeline; work the median catch-up time.
	setup, work  time.Duration
	blocksPerSec float64
	// latency is the geometric mean over freshness and the four read
	// classes of each one's median, in ms.
	latency      float64
	fresh, reads samples
	readP90      float64
	// peakRSSMB is the peak resident set over set-up and the timed
	// phases, less the memory the RAM stores hold.
	peakRSSMB float64
}

// readPool is how many distinct queries each reader class holds; a
// power of two no larger than 256, for the bit-reversed order.
const readPool = 256

// readClass is one query family of the reader's fedload mix.
type readClass struct {
	name    string
	queries []fed.Query
}

func readMix(blocks []*chain.Block, seed uint64) []readClass {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x696e6765))
	tip := blocks[len(blocks)-1].Height
	// window i of n covers frac of the chain; windows are spread evenly
	// over the chain, jittered by the seed, so every run reads early and
	// late (light and heavy) windows in the same proportions.
	window := func(i int, frac float64) etl.Range {
		w := max(int64(float64(tip)*frac), 1)
		slot := (tip - w) / readPool
		from := int64(i)*slot + rng.Int63n(max(slot, 1))
		return etl.Range{From: from, To: from + w}
	}
	// The pool is stored in bit-reversed window order, so any prefix
	// of it — the reads one run gets through — is spread evenly too.
	gen := func(name string, f func(i int) fed.Query) readClass {
		c := readClass{name: name, queries: make([]fed.Query, readPool)}
		for i := range c.queries {
			c.queries[bits.Reverse8(uint8(i))] = f(i)
		}
		return c
	}
	return []readClass{
		gen("count-window", func(i int) fed.Query { return fed.Query{Kind: fed.KindCount, Range: window(i, 0.08)} }),
		gen("mix-full", func(int) fed.Query { return fed.Query{Kind: fed.KindMix, Range: etl.All()} }),
		gen("txns-window", func(i int) fed.Query { return fed.Query{Kind: fed.KindTxns, Range: window(i, 0.05), Limit: 100} }),
		gen("topk-actors", func(i int) fed.Query { return fed.Query{Kind: fed.KindTopActors, Range: window(i, 0.25), K: 10} }),
	}
}

// ramStore is one store's filesystem: RAM-backed, with every call
// counted.
type ramStore struct {
	mem   *memfs.FS
	count *countfs.FS
}

func newRAMStore() ramStore {
	m := memfs.New()
	return ramStore{mem: m, count: countfs.New(m)}
}

// pipeline is the ingest topology under test.
type pipeline struct {
	chain   *chain.Chain
	store   *etl.Store
	live    *peoplesnet.LiveStudy
	cluster *fed.Cluster
	up      ramStore
	shards  []ramStore
}

// files is the memory every store of the pipeline holds.
func (p *pipeline) files() int64 {
	n := p.up.mem.Resident()
	for _, s := range p.shards {
		n += s.mem.Resident()
	}
	return n
}

func (p *pipeline) close() {
	if p.cluster != nil {
		_ = p.cluster.Close()
	}
	if p.live != nil {
		p.live.Close()
	}
	if p.store != nil {
		_ = p.store.Close()
	}
}

func openPipeline(w *peoplesnet.World) (*pipeline, error) {
	p := &pipeline{chain: chain.NewChain(w.Chain.Genesis), up: newRAMStore()}
	// The generator runs its ledger with a PoC challenge interval of one
	// block (simnet samples challenges sparsely itself). The blocks do
	// not carry that consensus parameter, so the replaying node is
	// configured with it, as any node of the simulated network would be.
	p.chain.Ledger().SetPoCInterval(1)
	store, err := etl.Open("/upstream", etl.Config{FS: p.up.count})
	if err != nil {
		return nil, fmt.Errorf("open upstream store: %w", err)
	}
	p.store = store
	p.live = peoplesnet.Live(store, w, peoplesnet.DefaultMeasureOptions())
	for i := 0; i < ingestShards; i++ {
		p.shards = append(p.shards, newRAMStore())
	}
	p.cluster = fed.FollowStore(store, fed.ByRegion(ingestShards), fed.Options{
		PerShardTimeout: 10 * time.Second,
		LagBudget:       64,
		ShardStore: func(id fed.ShardID) (string, etl.Config) {
			return "/shard", etl.Config{FS: p.shards[id].count}
		},
	})
	p.cluster.Supervise(fed.SupervisorOptions{})
	return p, nil
}

// append replays one generated block: the validating chain re-mints
// it, then the durable store ingests the re-minted block.
func (p *pipeline) append(r *report, b *chain.Block, parent int32) (*chain.Block, time.Duration, error) {
	sp := r.tr.Begin("chain.append", parent, b.Height)
	nb, err := p.chain.AppendBlock(b.Height, b.Txns)
	r.tr.End(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = r.tr.Begin("etl.append", parent, b.Height)
	t := time.Now()
	err = p.store.Append(nb)
	d := time.Since(t)
	r.tr.End(sp)
	return nb, d, err
}

// waitLive polls until the live study has folded height h.
func waitLive(ctx context.Context, st *peoplesnet.LiveStudy, h int64) error {
	for st.Height() < h {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("live study stuck at %d waiting for %d: %w", st.Height(), h, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// ingestPass runs one pass; rss, if not nil, samples its resident set
// until the timed phases end.
func ingestPass(ctx context.Context, cfg config, r *report, rss *rssSampler) (ingestResult, error) {
	var res ingestResult
	if rss != nil {
		defer rss.Stop()
	}
	// Phase 1, catch-up, runs catchupRounds times, each set up from
	// scratch: a freshly generated world and pipeline. Set-up time and
	// catch-up time are the medians; the last pipeline goes on to
	// phase 2. In a traced run the first round runs untraced, as the
	// base of trace.overhead_frac: catch-up is the phase the spans load
	// most, while the paced phase runs on a schedule.
	tr := r.tr
	var (
		w             *peoplesnet.World
		blocks        []*chain.Block
		mix           []readClass
		n1            int
		h1            int64
		setups, walls []float64
		p             *pipeline
		err           error
	)
	for round := 0; round < catchupRounds; round++ {
		if tr != nil {
			r.tr = tr
			if round == 0 {
				r.tr = nil
			}
		}
		rss.swap(func() func() int64 {
			if p != nil {
				p.close()
				p = nil
			}
			w, blocks = nil, nil
			// Start from a collected heap, so a collection of the last
			// round's garbage does not land at a random point inside this
			// one, and return the last round's stores to the system.
			debug.FreeOSMemory()
			return nil
		})
		t0 := time.Now()
		if w, err = world(r, 0); err != nil {
			return res, err
		}
		rss.swap(func() func() int64 {
			if p, err = openPipeline(w); err != nil {
				return nil
			}
			return p.files
		})
		if err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		blocks = w.Chain.Blocks()
		n1 = int(float64(len(blocks)) * catchupShare)
		h1 = blocks[n1-1].Height
		if mix == nil {
			mix = readMix(blocks, cfg.seed)
		}
		wall, err := catchup(ctx, r, p, blocks[:n1])
		if err != nil {
			p.close()
			return res, err
		}
		walls = append(walls, wall.Seconds())
		r.progress("catch-up round %d done", round+1)
	}
	res.setup = time.Duration(median(setups) * float64(time.Second))
	res.work = time.Duration(median(walls) * float64(time.Second))
	if tr != nil {
		r.perLayer("trace.overhead_frac", mean(walls[1:])/walls[0]-1, "ratio")
	}
	defer p.close()
	res.blocksPerSec = float64(n1) / res.work.Seconds()
	cache0 := p.cluster.Router().CacheStats()

	// Phase 2: paced appends, a tail watcher timing freshness, and one
	// closed-loop reader.
	paced := blocks[n1:]
	interval := cfg.seconds / time.Duration(len(paced))
	due := make([]time.Time, len(paced))
	emitted := make([]time.Time, len(paced))
	emittedHash := make([]string, len(paced))
	liveLag := make(samples, 0, len(paced))
	heights := make([]int64, len(paced))
	for i, b := range paced {
		heights[i] = b.Height
	}
	appended := make([]time.Time, len(paced))
	tailed := make([]time.Time, len(paced))

	mt := p.cluster.Tail(h1)
	defer context.AfterFunc(ctx, mt.Close)()
	var wg sync.WaitGroup
	var tailErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range paced {
			b, ok := mt.Next()
			if !ok {
				tailErr = fmt.Errorf("merged tail ended before block %d", paced[i].Height)
				return
			}
			tailed[i] = time.Now()
			if err := waitLive(ctx, p.live, b.Height); err != nil {
				tailErr = err
				return
			}
			emitted[i], emittedHash[i] = time.Now(), b.Hash
		}
	}()
	readerDone := make(chan struct{})
	var readLat samples
	readByClass := make(map[string]samples)
	var reads, readFails int64
	var precision float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-readerDone:
				return
			default:
			}
			// Round-robin over the classes and, within a class, through
			// its pool in order.
			c := mix[i%len(mix)]
			q := c.queries[(i/len(mix))%len(c.queries)]
			sp := r.tr.Begin("fed.query."+c.name, 0, int64(i))
			t := time.Now()
			fr, err := p.cluster.Query(ctx, q)
			d := time.Since(t)
			r.tr.End(sp)
			reads++
			if err != nil || len(fr.Missing) > 0 || len(fr.Gaps) > 0 {
				readFails++
				d = missedLimit
			} else {
				precision += fr.Precision()
			}
			readLat.add(d)
			s := readByClass[c.name]
			s.add(d)
			readByClass[c.name] = s
		}
	}()

	stop := func() {
		close(readerDone)
		mt.Close()
		wg.Wait()
	}
	root := r.tr.Begin("phase.paced", 0, 0)
	pstart := time.Now()
	for i, b := range paced {
		due[i] = pstart.Add(time.Duration(i) * interval)
		if wait := time.Until(due[i]); wait > 0 {
			sp := r.tr.Begin("load.pace_wait", root, b.Height)
			time.Sleep(wait)
			r.tr.End(sp)
		}
		r.attempted++
		if _, _, err := p.append(r, b, root); err != nil {
			stop()
			return res, fmt.Errorf("paced append %d: %w", b.Height, err)
		}
		appended[i] = time.Now()
		// Blocks, not heights: the chain's heights are sparse.
		lh := p.live.Height()
		folded := sort.Search(i+1, func(j int) bool { return heights[j] > lh })
		liveLag = append(liveLag, float64(i+1-folded))
	}
	r.tr.End(root)
	if err := p.cluster.WaitHeight(ctx, paced[len(paced)-1].Height); err != nil {
		stop()
		return res, fmt.Errorf("followers at tip: %w", err)
	}
	// The watcher ends by itself once the last paced block is out.
	close(readerDone)
	wg.Wait()
	mt.Close()
	if tailErr != nil {
		return res, tailErr
	}
	cache1 := p.cluster.Router().CacheStats()

	// Everything below runs after the timed phases.
	if rss != nil {
		res.peakRSSMB = rss.Stop()
	}
	for i := range paced {
		res.fresh.add(emitted[i].Sub(due[i]))
	}
	res.reads = readLat
	r.attempted += reads
	r.failed += readFails
	r.more("load.fresh_p90_ms", quantile(res.fresh, 0.90), "ms")
	if v, ok := tail(res.fresh, 0.99); ok {
		r.more("load.fresh_p99_ms", v, "ms")
	}
	var ok bool
	if res.readP90, ok = tail(res.reads, 0.90); !ok {
		return res, fmt.Errorf("only %d reads: too few for a p90", len(res.reads))
	}
	// Freshness and each read class weigh the same in the latency.
	classes := []string{"fresh"}
	readByClass["fresh"] = res.fresh
	for _, c := range mix {
		classes = append(classes, c.name)
	}
	if res.latency, ok = classGeomean(readByClass, classes); !ok {
		return res, fmt.Errorf("a read class got no reads")
	}
	for _, c := range mix {
		if s := readByClass[c.name]; len(s) > 0 {
			r.more("fed.query_ms_p50."+c.name, median(s), "ms")
			if v, ok := tail(s, 0.90); ok {
				r.more("fed.query_ms_p90."+c.name, v, "ms")
			}
		}
	}
	r.more("live.lag_blocks_p99", quantile(liveLag, 0.99), "blocks")
	if v, ok := tail(followerLag(appended, tailed), 0.99); ok {
		r.more("fed.follower_lag_blocks_p99", v, "blocks")
	}
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses)
	if lookups > 0 {
		r.more("fed.cache_hit_ratio", float64(cache1.Hits-cache0.Hits)/float64(lookups), "ratio")
	}
	if reads > 0 {
		r.more("fed.degraded_frac", float64(readFails)/float64(reads), "ratio")
	}
	if ok := reads - readFails; ok > 0 {
		r.more("fed.precision", precision/float64(ok), "ratio")
	}

	// I/O counts, exact: upstream and shards separately.
	nblocks := float64(len(blocks))
	up := p.up.count.Counts()
	var shards countfs.Counts
	var shardBytes int64
	for _, s := range p.shards {
		shards = shards.Add(s.count.Counts())
		shardBytes += s.mem.Bytes()
	}
	r.more("etl.syncs_per_block.upstream", float64(up.Syncs)/nblocks, "count")
	r.more("etl.syncs_per_block.shards", float64(shards.Syncs)/nblocks, "count")
	r.more("etl.write_bytes_per_block.upstream", float64(up.WriteBytes)/nblocks, "B")
	r.more("etl.write_bytes_per_block.shards", float64(shards.WriteBytes)/nblocks, "B")
	r.more("etl.creates_per_block.upstream", float64(up.Creates)/nblocks, "count")
	r.more("etl.creates_per_block.shards", float64(shards.Creates)/nblocks, "count")
	r.more("etl.renames_per_block.upstream", float64(up.Renames)/nblocks, "count")
	r.more("etl.renames_per_block.shards", float64(shards.Renames)/nblocks, "count")
	r.more("etl.disk_bytes_per_block.upstream", float64(p.up.mem.Bytes())/nblocks, "B")
	r.more("etl.disk_bytes_per_block.shards", float64(shardBytes)/nblocks, "B")
	r.check(up.Failed+shards.Failed == 0, "%d filesystem operations failed", up.Failed+shards.Failed)

	r.progress("paced phase done")
	ingestOracles(ctx, r, w, p, blocks, paced, emittedHash, mix)
	r.progress("oracles checked")
	return res, nil
}

// followerLag is, at each paced append, how many of the blocks
// appended so far the merged tail had not yet emitted: how far the
// slowest shard trailed the store. Both series are in append order and
// nondecreasing.
func followerLag(appended, tailed []time.Time) samples {
	out := make(samples, len(appended))
	for i, at := range appended {
		through := sort.Search(i+1, func(j int) bool { return tailed[j].After(at) })
		out[i] = float64(i + 1 - through)
	}
	return out
}

// catchupRounds is how many times phase 1 runs in one pass.
const catchupRounds = 3

// catchup appends blocks as fast as Append returns and waits for the
// live study and every shard to reach the last one. It returns the
// whole phase's wall time.
func catchup(ctx context.Context, r *report, p *pipeline, blocks []*chain.Block) (time.Duration, error) {
	h := blocks[len(blocks)-1].Height
	root := r.tr.Begin("phase.catchup", 0, 0)
	var appendUs samples
	var chainTime time.Duration
	start := time.Now()
	for _, b := range blocks {
		r.attempted++
		tc := time.Now()
		_, d, err := p.append(r, b, root)
		if err != nil {
			return 0, fmt.Errorf("append block %d: %w", b.Height, err)
		}
		chainTime += time.Since(tc) - d
		appendUs = append(appendUs, float64(d)/float64(time.Microsecond))
	}
	appended := time.Now()
	sp := r.tr.Begin("live.catchup", root, 0)
	if err := waitLive(ctx, p.live, h); err != nil {
		return 0, err
	}
	liveAt := time.Now()
	r.tr.End(sp)
	sp = r.tr.Begin("fed.catchup", root, 0)
	if err := p.cluster.WaitHeight(ctx, h); err != nil {
		return 0, fmt.Errorf("followers at catch-up: %w", err)
	}
	fedAt := time.Now()
	r.tr.End(sp)
	r.tr.End(root)
	n := float64(len(blocks))
	r.more("chain.append_us_per_block", float64(chainTime)/float64(time.Microsecond)/n, "us")
	r.more("etl.append_us_p50", median(appendUs), "us")
	if v, ok := tail(appendUs, 0.99); ok {
		r.more("etl.append_us_p99", v, "us")
	}
	r.more("live.catchup_lag_s", liveAt.Sub(appended).Seconds(), "s")
	r.more("fed.catchup_s", fedAt.Sub(appended).Seconds(), "s")
	if r.tr != nil {
		r.perLayer("trace.unaccounted_frac", r.tr.unaccounted(root), "ratio")
	}
	return fedAt.Sub(start), nil
}

// ingestOracles checks the pass's outputs once its timed phases are
// over: re-minted and tailed block hashes against the generated
// chain's, the live study at the tip against MeasureStore, and
// end-of-run federated reads against fed.Reference.
func ingestOracles(ctx context.Context, r *report, w *peoplesnet.World, p *pipeline,
	blocks, paced []*chain.Block, emittedHash []string, mix []readClass) {
	replayed := p.chain.Blocks()
	r.check(len(replayed) == len(blocks), "replayed %d blocks of %d", len(replayed), len(blocks))
	for i := range min(len(replayed), len(blocks)) {
		if replayed[i].Hash != blocks[i].Hash {
			r.check(false, "block %d: re-minted hash %s != generated %s", blocks[i].Height, replayed[i].Hash, blocks[i].Hash)
			break
		}
	}
	for i, b := range paced {
		if emittedHash[i] != b.Hash {
			r.check(false, "merged tail block %d: hash %s != generated %s", b.Height, emittedHash[i], b.Hash)
			break
		}
	}

	tip := blocks[len(blocks)-1].Height
	if err := waitLive(ctx, p.live, tip); err != nil {
		r.check(false, "%v", err)
		return
	}
	sn := p.live.Snapshot()
	p.store.SetLedger(p.chain.Ledger())
	tm := time.Now()
	batch := peoplesnet.MeasureStore(p.store, w)
	r.perLayer("core.measure_s", time.Since(tm).Seconds(), "s")
	for _, c := range []struct {
		name      string
		live, bat any
	}{
		{"summary", sn.Summary, batch.Summary},
		{"moves", sn.Moves, batch.Moves},
		{"growth", sn.Growth, batch.Growth},
		{"ownership", sn.Ownership, batch.Ownership},
		{"resale", sn.Resale, batch.Resale},
		{"traffic", sn.Traffic, batch.Traffic},
	} {
		r.check(reflect.DeepEqual(c.live, c.bat), "live %s at tip %d differs from MeasureStore", c.name, tip)
	}
	noteApplyErrs(r, sn.ApplyErrs)

	for _, c := range mix {
		for _, q := range c.queries[:6] {
			got, err := p.cluster.Query(ctx, q)
			if err != nil {
				r.check(false, "final %s read: %v", c.name, err)
				continue
			}
			if diff := compareResult(got, fed.Reference(blocks, q)); diff != "" {
				r.check(false, "final %s read differs from fed.Reference: %s", c.name, diff)
			}
		}
	}
}

// compareResult compares a federated answer with the reference on
// the fields the query's kind defines.
func compareResult(got, want *fed.Result) string {
	switch {
	case len(got.Missing) > 0 || len(got.Gaps) > 0:
		return fmt.Sprintf("degraded: missing %v gaps %v", got.Missing, got.Gaps)
	case got.Count != want.Count:
		return fmt.Sprintf("count %d != %d", got.Count, want.Count)
	case !reflect.DeepEqual(nonEmpty(got.Mix), nonEmpty(want.Mix)):
		return fmt.Sprintf("mix %v != %v", got.Mix, want.Mix)
	case !reflect.DeepEqual(got.TopActors, want.TopActors):
		return fmt.Sprintf("top actors %v != %v", got.TopActors, want.TopActors)
	case got.HasMore != want.HasMore || (got.HasMore && got.Next != want.Next):
		return fmt.Sprintf("more %v/%v next %v/%v", got.HasMore, want.HasMore, got.Next, want.Next)
	case len(got.Txns) != len(want.Txns):
		return fmt.Sprintf("%d txns != %d", len(got.Txns), len(want.Txns))
	}
	for i := range got.Txns {
		g, w := got.Txns[i], want.Txns[i]
		if g.Height != w.Height || g.Seq != w.Seq || g.Hash != w.Hash {
			return fmt.Sprintf("txn %d: %d-%d %s != %d-%d %s", i, g.Height, g.Seq, g.Hash, w.Height, w.Seq, w.Hash)
		}
	}
	return ""
}

func nonEmpty(m map[chain.TxnType]int64) map[chain.TxnType]int64 {
	out := map[chain.TxnType]int64{}
	for k, v := range m {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}
