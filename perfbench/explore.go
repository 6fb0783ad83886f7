package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/fed"
	"peoplesnet/internal/names"
)

const (
	// exploreRate is the open loop's fixed arrival rate (req/s), a
	// quarter of what two closed-loop connections sustain on the
	// reference host. At half of it, queueing behind /study and /etl
	// made per-class latency swing too far between runs (see
	// README.md).
	exploreRate = 15.0
	// exploreConns bounds the load's connections: one per CPU of the
	// reference host.
	exploreConns = 2
	// exploreLaunches is how many times the explorer is started; the
	// set-up time reported is their median and the last one serves the
	// load.
	exploreLaunches = 3
	// exploreWarmup requests precede the timed phases, unrecorded.
	exploreWarmup = 100
	// exploreBatch requests, issued flat out on exploreConns
	// connections, are the batch whose wall time is work_s.
	exploreBatch = 300
	// explorePageLimit is the page size of every /txns request.
	explorePageLimit = 10
	// walkPages is how many pages a txns-walk request follows.
	walkPages = 3
)

// exploreClasses are the request classes. There is no measured mix of
// explorer traffic to take shares from, so every class gets the same
// share.
var exploreClasses = []string{
	"txns-actor", "txns-owner", "txns-type", "txns-region", "txns-walk",
	"hotspot", "stats", "report", "study", "etl",
}

// exploreReq is one distinct request of the pool.
type exploreReq struct {
	class string
	uri   string    // path and query
	q     fed.Query // the first page's federated query (txns classes)
	addr  string    // hotspot class: the address looked up
	check bool      // answers are kept and checked after the run
}

func (q *exploreReq) txns() bool { return strings.HasPrefix(q.class, "txns-") }

// explorePool draws each class's distinct requests from the world:
// real actor and owner addresses, busy regions and height windows.
// The txns classes hold far more distinct requests than the router's
// 256-entry result cache.
func explorePool(w *peoplesnet.World, seed uint64) map[string][]exploreReq {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x706f6f6c))
	blocks := w.Chain.Blocks()
	tip := blocks[len(blocks)-1].Height
	hs, owners := w.World.Hotspots, w.World.Owners
	regionTxns := make([]int, fed.NumRegions)
	for i := 0; i < len(blocks); i += 1 + len(blocks)/512 {
		for _, t := range blocks[i].Txns {
			regionTxns[fed.RegionOf(t)]++
		}
	}
	var regions []int
	for reg, n := range regionTxns {
		if n > 0 {
			regions = append(regions, reg)
		}
	}
	types := []chain.TxnType{chain.TxnPayment, chain.TxnAddGateway, chain.TxnAssertLocation,
		chain.TxnTransferHotspot, chain.TxnPoCReceipt}
	window := func(frac float64) (int64, int64) {
		n := max(int64(float64(tip)*frac*(0.6+rng.Float64())), 1)
		from := rng.Int63n(tip - n + 1)
		return from, from + n
	}
	txnsQuery := func(f etl.Filter, from, to int64) fed.Query {
		return fed.Query{Kind: fed.KindTxns, Range: etl.Range{From: from, To: to}, Filter: f, Limit: explorePageLimit}
	}
	pool := map[string][]exploreReq{}
	add := func(q exploreReq) {
		// The most requested entries (low Zipf ranks, so cache hits
		// too) and an even spread of the rest are checked.
		k := len(pool[q.class])
		q.check = k < 8 || k%50 == 0
		pool[q.class] = append(pool[q.class], q)
	}
	// A hotspot lookup scans the hotspot list, so its cost follows the
	// address's place in the list. The places follow a golden-ratio
	// sequence from a seeded start: any prefix of the pool, such as the
	// most requested entries, is spread evenly over the list.
	at := rng.Float64()
	for i := 0; i < 400; i++ {
		a := hs[rng.Intn(len(hs))].Address
		add(exploreReq{class: "txns-actor", uri: "/txns?actor=" + a + "&limit=" + strconv.Itoa(explorePageLimit),
			q: txnsQuery(etl.Filter{Actors: []string{a}}, 0, -1)})
		at = math.Mod(at+(math.Sqrt(5)-1)/2, 1)
		a = hs[int(at*float64(len(hs)))].Address
		add(exploreReq{class: "hotspot", uri: "/hotspots/" + a, addr: a})
	}
	for i := 0; i < 200; i++ {
		o := owners[rng.Intn(len(owners))].Address
		add(exploreReq{class: "txns-owner", uri: "/txns?actor=" + o + "&limit=" + strconv.Itoa(explorePageLimit),
			q: txnsQuery(etl.Filter{Actors: []string{o}}, 0, -1)})
		tt := types[rng.Intn(len(types))]
		from, to := window(0.05)
		add(exploreReq{class: "txns-type", uri: fmt.Sprintf("/txns?type=%s&from=%d&to=%d&limit=%d", tt, from, to, explorePageLimit),
			q: txnsQuery(etl.Filter{Types: []chain.TxnType{tt}}, from, to)})
	}
	for i := 0; i < 96; i++ {
		reg := regions[rng.Intn(len(regions))]
		from, to := window(0.10)
		q := txnsQuery(etl.Filter{}, from, to)
		q.HasRegion, q.Region = true, reg
		add(exploreReq{class: "txns-region", uri: fmt.Sprintf("/txns?region=%d&from=%d&to=%d&limit=%d", reg, from, to, explorePageLimit), q: q})
	}
	for i := 0; i < 64; i++ {
		tt := types[rng.Intn(len(types))]
		from, _ := window(0.5)
		add(exploreReq{class: "txns-walk", uri: fmt.Sprintf("/txns?type=%s&from=%d&limit=%d", tt, from, explorePageLimit),
			q: txnsQuery(etl.Filter{Types: []chain.TxnType{tt}}, from, -1)})
	}
	for _, c := range []string{"stats", "report", "study", "etl"} {
		add(exploreReq{class: c, uri: "/" + c})
	}
	return pool
}

// drawRequests picks n requests in rounds: each round holds every
// class once, in a seeded random order, so the classes get equal
// shares of any run. Within a class the entry is Zipf-skewed over its
// pool: P(k) ∝ (32+k)^-1.1, a head flat enough that no single entry
// dominates a class, so the class's cost does not hinge on which few
// entries the seed made popular.
func drawRequests(rng *rand.Rand, pool map[string][]exploreReq, n int) []*exploreReq {
	zipf := map[string]*rand.Zipf{}
	for c, p := range pool {
		if len(p) > 1 {
			zipf[c] = rand.NewZipf(rng, 1.1, 32, uint64(len(p)-1))
		}
	}
	out := make([]*exploreReq, 0, n)
	round := append([]string(nil), exploreClasses...)
	for len(out) < n {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, c := range round[:min(len(round), n-len(out))] {
			k := 0
			if z := zipf[c]; z != nil {
				k = int(z.Uint64())
			}
			out = append(out, &pool[c][k])
		}
	}
	return out
}

// exchange is one request's outcome as the client saw it.
type exchange struct {
	bytes int
	pages [][]byte // bodies, kept for checked requests only
}

// client issues explorer requests over a bounded connection pool.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout: missedLimit,
		Transport: &http.Transport{
			MaxConnsPerHost:     exploreConns,
			MaxIdleConnsPerHost: exploreConns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) get(ctx context.Context, uri string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+uri, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// do issues one pool request; a txns-walk follows next_cursor.
func (c *client) do(ctx context.Context, q *exploreReq) (exchange, error) {
	var ex exchange
	uri := q.uri
	pages := 1
	if q.class == "txns-walk" {
		pages = walkPages
	}
	for p := 0; p < pages; p++ {
		status, body, err := c.get(ctx, uri)
		ex.bytes += len(body)
		if err != nil {
			return ex, err
		}
		if status != http.StatusOK {
			return ex, fmt.Errorf("%s: status %d", uri, status)
		}
		if q.check {
			ex.pages = append(ex.pages, body)
		}
		if pages == 1 {
			break
		}
		var page struct {
			Next string `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return ex, fmt.Errorf("%s: %w", uri, err)
		}
		if page.Next == "" {
			break
		}
		uri = q.uri + "&cursor=" + page.Next
	}
	return ex, nil
}

// explorerProc is one explorer subprocess.
type explorerProc struct {
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	exited chan struct{}
}

// startExplorer launches the explorer with its defaults (4 region
// shards, in-memory store) on a paper-scale world and returns once
// /etl first answers 200, with the time that took.
func startExplorer(ctx context.Context, cfg config, n int) (*explorerProc, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(cfg.work, fmt.Sprintf("explorer-%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(cfg.explorer, "-scale", "paper", "-seed", strconv.FormatUint(worldSeed, 10), "-listen", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The explorer dies with the harness, however the harness ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start explorer: %w", err)
	}
	p := &explorerProc{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		if resp, err := probe.Get(p.base + "/etl"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.exited:
			p.stop()
			return nil, 0, fmt.Errorf("explorer exited during start-up: %s", p.logTail())
		case <-ctx.Done():
			p.stop()
			return nil, 0, fmt.Errorf("explorer start-up: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// stop kills and reaps the explorer and returns its peak RSS in MB.
func (p *explorerProc) stop() float64 {
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.logf.Close()
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func (p *explorerProc) logTail() string {
	b, _ := os.ReadFile(p.logf.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// cacheStats reads the router's result-cache counters from /etl.
func (c *client) cacheStats(ctx context.Context) (fed.CacheStats, error) {
	var body struct {
		Federation struct {
			Cache fed.CacheStats `json:"result_cache"`
		} `json:"federation"`
	}
	status, b, err := c.get(ctx, "/etl")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/etl: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(b, &body)
	}
	return body.Federation.Cache, err
}

// explore is what explorer users wait for: the explorer built from the
// tree under test, run as a subprocess on a paper-scale world and
// driven over loopback HTTP by a seeded Poisson open loop at a fixed
// rate on at most two connections. Latency runs from each request's
// due time. The harness first generates the same world in-process for
// query parameters and the oracle. Ahead of the open loop, a fixed
// batch of requests is issued flat out on the same connections; its
// wall time is the workload's work_s. A traced run then replays the same
// request sequence against an in-process mirror of the explorer's
// start-up, with spans around every layer call.
func explore(ctx context.Context, cfg config, r *report) error {
	w, err := world(r, 0)
	if err != nil {
		return err
	}
	r.progress("world generated")
	pool := explorePool(w, cfg.seed)
	rng := rand.New(rand.NewSource(int64(cfg.seed) ^ 0x6c6f6164))
	due := poissonArrivals(rng, exploreRate, cfg.seconds)
	seq := drawRequests(rng, pool, len(due))
	warm := drawRequests(rand.New(rand.NewSource(int64(cfg.seed)^0x7761726d)), pool, exploreWarmup)
	batch := drawRequests(rand.New(rand.NewSource(int64(cfg.seed)^0x62617463)), pool, exploreBatch)

	var setups []float64
	var proc *explorerProc
	for n := 0; n < exploreLaunches; n++ {
		p, d, err := startExplorer(ctx, cfg, n)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if n < exploreLaunches-1 {
			p.stop()
			continue
		}
		proc = p
	}
	defer func() {
		if proc != nil {
			proc.stop()
		}
	}()
	r.progress("explorer started %d times", exploreLaunches)
	c := newClient(proc.base)
	flatOut := func(reqs []*exploreReq) []opTiming {
		return openLoop(ctx, time.Now(), make([]time.Duration, len(reqs)), exploreConns, func(i int) error {
			_, err := c.do(ctx, reqs[i])
			return err
		})
	}
	for i, t := range flatOut(warm) {
		if t.Err != nil {
			return fmt.Errorf("warm-up request %s: %w", warm[i].uri, t.Err)
		}
	}
	r.progress("warm-up done")
	// The batch: a fixed number of requests as fast as two connections
	// get them served, so its wall time shows the explorer's capacity.
	// The client's garbage waits, as in the open loop below.
	gcPercent := debug.SetGCPercent(-1)
	t0 := time.Now()
	batchTimings := flatOut(batch)
	work := time.Since(t0)
	debug.SetGCPercent(gcPercent)
	for i, t := range batchTimings {
		r.attempted++
		if t.Err != nil {
			r.failed++
			r.check(false, "batch request %s: %v", batch[i].uri, t.Err)
		}
	}
	cache0, err := c.cacheStats(ctx)
	if err != nil {
		return err
	}

	// The harness holds the world for the oracle, a heap a collection
	// would take long to mark; its assists would stall the client and
	// show as explorer latency. The client's garbage over one timed
	// phase is small, so collection waits until the phase is over.
	gcPercent = debug.SetGCPercent(-1)
	exchanges := make([]exchange, len(seq))
	timings := openLoop(ctx, time.Now(), due, exploreConns, func(i int) error {
		var err error
		exchanges[i], err = c.do(ctx, seq[i])
		return err
	})
	debug.SetGCPercent(gcPercent)
	if err := ctx.Err(); err != nil {
		return err
	}
	cache1, err := c.cacheStats(ctx)
	if err != nil {
		return err
	}
	rss := proc.stop()
	r.progress("batch and open loop done")
	proc = nil

	var lat, late samples
	service, classLat := map[string]samples{}, map[string]samples{}
	respBytes := map[string][]float64{}
	for i, t := range timings {
		r.attempted++
		c := seq[i].class
		l := classLat[c]
		if t.Err != nil {
			r.failed++
			lat.add(missedLimit)
			l.add(missedLimit)
			classLat[c] = l
			continue
		}
		lat.add(t.Latency)
		l.add(t.Latency)
		classLat[c] = l
		late.add(t.Late)
		s := service[c]
		s.add(t.Service)
		service[c] = s
		respBytes[c] = append(respBytes[c], float64(exchanges[i].bytes))
	}
	r.endToEnd("setup_s", median(setups), "s")
	geo, ok := classGeomean(classLat, exploreClasses)
	if !ok {
		return fmt.Errorf("a request class got no requests")
	}
	r.endToEnd("latency_ms", geo, "ms")
	r.endToEnd("work_s", work.Seconds(), "s")
	r.more("load.req_p50_ms", median(lat), "ms")
	// About 375 requests per run: a p99 would rest on four samples.
	r.more("load.req_p90_ms", quantile(lat, 0.90), "ms")
	r.endToEnd("peak_rss_mb", rss, "MB")
	if v, ok := tail(late, 0.90); ok {
		r.more("load.gen_late_ms_p90", v, "ms")
	}
	for _, c := range exploreClasses {
		if b := respBytes[c]; len(b) > 0 {
			r.more("explorer.resp_kb."+c, mean(b)/1024, "KB")
		}
		if l := classLat[c]; len(l) > 0 {
			r.more("load.req_p50_ms."+c, median(l), "ms")
		}
	}
	if lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses); lookups > 0 {
		r.more("fed.cache_hit_ratio", float64(cache1.Hits-cache0.Hits)/float64(lookups), "ratio")
	}

	exploreOracles(r, w, seq, exchanges, timings)
	r.progress("oracles checked")
	if r.tr == nil {
		return nil
	}
	return exploreMirror(ctx, r, w, seq, service)
}

// classGeomean is the geometric mean over the classes of each class's
// median latency: every class weighs the same, and a change by some
// factor in any one class moves it by the same share. It reports false
// unless every class has latencies.
func classGeomean(lat map[string]samples, classes []string) (float64, bool) {
	var logs float64
	for _, c := range classes {
		if len(lat[c]) == 0 {
			return 0, false
		}
		logs += math.Log(median(lat[c]))
	}
	return math.Exp(logs / float64(len(classes))), true
}

// txnsPage is the part of a /txns answer the oracle compares.
type txnsPage struct {
	Txns []struct {
		Height int64  `json:"height"`
		Seq    int32  `json:"seq"`
		Type   string `json:"type"`
		Hash   string `json:"hash"`
	} `json:"txns"`
	HasMore bool   `json:"has_more"`
	Next    string `json:"next_cursor"`
}

// exploreOracles checks the kept answers after the timed phase:
// /txns pages against fed.Reference over the generated chain, and the
// other classes against the world.
func exploreOracles(r *report, w *peoplesnet.World, seq []*exploreReq, exchanges []exchange, timings []opTiming) {
	blocks := w.Chain.Blocks()
	tip := blocks[len(blocks)-1].Height
	refs := map[*exploreReq][]*fed.Result{}
	reference := func(q *exploreReq, page int) *fed.Result {
		for len(refs[q]) <= page {
			fq := q.q
			if n := len(refs[q]); n > 0 {
				fq.Cursor = refs[q][n-1].Next
			}
			refs[q] = append(refs[q], fed.Reference(blocks, fq))
		}
		return refs[q][page]
	}
	checked := 0
	for i, q := range seq {
		if !q.check || timings[i].Err != nil {
			continue
		}
		ex := exchanges[i]
		checked++
		switch {
		case q.txns():
			for p, body := range ex.pages {
				var got txnsPage
				if err := json.Unmarshal(body, &got); err != nil {
					r.check(false, "%s page %d: %v", q.uri, p, err)
					break
				}
				if diff := comparePage(got, reference(q, p)); diff != "" {
					r.check(false, "%s page %d differs from fed.Reference: %s", q.uri, p, diff)
				}
			}
		case q.class == "study":
			var s struct {
				Height    int64 `json:"height"`
				Lag       int64 `json:"lag_blocks"`
				ApplyErrs int64 `json:"apply_errs"`
			}
			err := json.Unmarshal(ex.pages[0], &s)
			r.check(err == nil && s.Height == tip && s.Lag == 0,
				"/study: height %d lag %d (tip %d, err %v)", s.Height, s.Lag, tip, err)
			noteApplyErrs(r, s.ApplyErrs)
		case q.class == "etl":
			var s struct {
				Tip    int64 `json:"tip_height"`
				Blocks int64 `json:"blocks"`
			}
			err := json.Unmarshal(ex.pages[0], &s)
			r.check(err == nil && s.Tip == tip && s.Blocks == int64(len(blocks)),
				"/etl: tip %d blocks %d, chain tip %d blocks %d (err %v)", s.Tip, s.Blocks, tip, len(blocks), err)
		case q.class == "hotspot":
			var h struct {
				Address string `json:"address"`
			}
			err := json.Unmarshal(ex.pages[0], &h)
			r.check(err == nil && h.Address == q.addr, "%s answered %q (err %v)", q.uri, h.Address, err)
		case q.class == "stats":
			var s struct {
				Owners int `json:"owners"`
			}
			err := json.Unmarshal(ex.pages[0], &s)
			r.check(err == nil && s.Owners > 0, "/stats: owners %d (err %v)", s.Owners, err)
		case q.class == "report":
			r.check(bytes.Count(ex.pages[0], []byte("\n")) > 20, "/report has %d lines", bytes.Count(ex.pages[0], []byte("\n")))
		}
	}
	r.check(checked > 0, "no answers were kept for checking")
}

func comparePage(got txnsPage, want *fed.Result) string {
	next := ""
	if want.HasMore {
		next = want.Next.String()
	}
	if got.HasMore != want.HasMore || got.Next != next {
		return fmt.Sprintf("has_more %v next %q, want %v %q", got.HasMore, got.Next, want.HasMore, next)
	}
	if len(got.Txns) != len(want.Txns) {
		return fmt.Sprintf("%d txns, want %d", len(got.Txns), len(want.Txns))
	}
	for i, g := range got.Txns {
		wt := want.Txns[i]
		if g.Height != wt.Height || g.Seq != wt.Seq || g.Type != wt.Type || g.Hash != wt.Hash {
			return fmt.Sprintf("txn %d: %d-%d %s %s, want %d-%d %s %s", i, g.Height, g.Seq, g.Type, g.Hash, wt.Height, wt.Seq, wt.Type, wt.Hash)
		}
	}
	return ""
}

// mirror is an in-process copy of the explorer's start-up, built
// through the same public, store-based calls.
type mirror struct {
	w       *peoplesnet.World
	store   *etl.Store
	study   *peoplesnet.Study
	live    *peoplesnet.LiveStudy
	cluster *fed.Cluster
}

func newMirrorCluster(ctx context.Context, store *etl.Store) (*fed.Cluster, error) {
	c := fed.FollowStore(store, fed.ByRegion(4), fed.Options{PerShardTimeout: 10 * time.Second, LagBudget: 64})
	c.Supervise(fed.SupervisorOptions{})
	if err := c.WaitHeight(ctx, store.Height()); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("mirror federation catch-up: %w", err)
	}
	return c, nil
}

// mirrorStats collects the per-class layer-call timings of a replay.
type mirrorStats struct {
	call      map[string]samples // per class: the whole request's layer calls
	fedCall   map[string]samples // per class: each Cluster.Query
	snapshot  samples
	queries   int64
	degraded  int64
	precision float64
}

// serve makes the layer calls the explorer's handler for q's class
// makes, with a span around each.
func (m *mirror) serve(ctx context.Context, r *report, q *exploreReq, parent int32, id int64, st *mirrorStats) error {
	span := func(name string, fn func()) time.Duration {
		sp := r.tr.Begin(name, parent, id)
		t := time.Now()
		fn()
		d := time.Since(t)
		r.tr.End(sp)
		return d
	}
	switch {
	case q.txns():
		fq := q.q
		pages := 1
		if q.class == "txns-walk" {
			pages = walkPages
		}
		for p := 0; p < pages; p++ {
			var res *fed.Result
			var err error
			d := span("fed.query", func() { res, err = m.cluster.Query(ctx, fq) })
			if err != nil {
				return err
			}
			s := st.fedCall[q.class]
			s.add(d)
			st.fedCall[q.class] = s
			st.queries++
			st.precision += res.Precision()
			if len(res.Missing) > 0 || len(res.Gaps) > 0 {
				st.degraded++
			}
			if !res.HasMore {
				break
			}
			fq.Cursor = res.Next
		}
	case q.class == "study":
		st.snapshot.add(span("live.snapshot", func() { _ = m.live.Snapshot() }))
	case q.class == "etl":
		span("etl.stats", func() {
			_, _, _, _ = m.store.Stats(), m.store.Aggregates(), m.store.Segments(), m.store.Health()
			_, _ = m.live.Height(), m.live.Lag()
		})
		span("fed.shards", func() { _, _ = m.cluster.Shards(), m.cluster.Router().CacheStats() })
	case q.class == "stats":
		span("core.relays", func() { _ = m.study.Relays.Stats.RelayedFraction() })
	case q.class == "report":
		span("core.render", func() { _ = m.study.RenderText() })
	case q.class == "hotspot":
		span("names.hotspot_scan", func() {
			for _, h := range m.w.World.Hotspots {
				if h.Address == q.addr || names.Slug(names.FromAddress(h.Address)) == q.addr {
					break
				}
			}
		})
	}
	return nil
}

// replay runs the request sequence through the mirror on a fresh
// federation (so both replays start from a cold result cache), one
// request at a time, and returns its wall time.
func (m *mirror) replay(ctx context.Context, r *report, seq []*exploreReq, st *mirrorStats) (time.Duration, int32, error) {
	c, err := newMirrorCluster(ctx, m.store)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	m.cluster = c
	root := r.tr.Begin("phase.mirror_replay", 0, 0)
	start := time.Now()
	for i, q := range seq {
		sp := r.tr.Begin("explorer."+q.class, root, int64(i))
		t := time.Now()
		err := m.serve(ctx, r, q, sp, int64(i), st)
		d := time.Since(t)
		r.tr.End(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("mirror %s: %w", q.uri, err)
		}
		s := st.call[q.class]
		s.add(d)
		st.call[q.class] = s
	}
	wall := time.Since(start)
	r.tr.End(root)
	return wall, root, nil
}

// exploreMirror builds the mirror with spans around each start-up
// layer, replays the sequence untraced and then traced, and reports
// per-layer metrics from the traced replay.
func exploreMirror(ctx context.Context, r *report, w *peoplesnet.World, seq []*exploreReq, httpService map[string]samples) error {
	m := &mirror{w: w}
	tip := w.Chain.Height()
	timed := func(name string, fn func()) time.Duration {
		sp := r.tr.Begin(name, 0, 0)
		t := time.Now()
		fn()
		d := time.Since(t)
		r.tr.End(sp)
		return d
	}
	r.more("etl.index_s", timed("etl.index", func() { m.store = etl.FromChain(w.Chain) }).Seconds(), "s")
	r.perLayer("core.measure_s", timed("core.measure", func() { m.study = peoplesnet.MeasureStore(m.store, w) }).Seconds(), "s")
	r.more("core.render_ms", ms(timed("core.render", func() { _ = m.study.RenderText() })), "ms")
	var err error
	lagged := timed("live.catchup", func() {
		m.live = peoplesnet.Live(m.store, w, peoplesnet.DefaultMeasureOptions())
		err = waitLive(ctx, m.live, tip)
	})
	if m.live != nil {
		defer m.live.Close()
	}
	if err != nil {
		return err
	}
	r.more("live.catchup_lag_s", lagged.Seconds(), "s")
	var c *fed.Cluster
	caught := timed("fed.catchup", func() { c, err = newMirrorCluster(ctx, m.store) })
	if err != nil {
		return err
	}
	if err := c.Close(); err != nil {
		return err
	}
	r.more("fed.catchup_s", caught.Seconds(), "s")

	newStats := func() *mirrorStats {
		return &mirrorStats{call: map[string]samples{}, fedCall: map[string]samples{}}
	}
	tr := r.tr
	r.tr = nil
	plain, _, err := m.replay(ctx, r, seq, newStats())
	r.tr = tr
	if err != nil {
		return err
	}
	st := newStats()
	traced, root, err := m.replay(ctx, r, seq, st)
	if err != nil {
		return err
	}
	r.perLayer("trace.overhead_frac", traced.Seconds()/plain.Seconds()-1, "ratio")
	// The replay's children are whole requests; what matters is how much
	// of each request its layer spans cover.
	r.perLayer("trace.unaccounted_frac", r.tr.unaccountedChildren(root), "ratio")
	for _, c := range exploreClasses {
		if s := st.fedCall[c]; len(s) > 0 {
			r.more("fed.query_ms_p50."+c, median(s), "ms")
			if v, ok := tail(s, 0.90); ok {
				r.more("fed.query_ms_p90."+c, v, "ms")
			}
		}
		if h, s := httpService[c], st.call[c]; len(h) > 0 && len(s) > 0 {
			r.more("explorer.overhead_ms_p50."+c, median(h)-median(s), "ms")
		}
	}
	if len(st.snapshot) > 0 {
		r.more("live.snapshot_ms_p50", median(st.snapshot), "ms")
	}
	if st.queries > 0 {
		r.more("fed.precision", st.precision/float64(st.queries), "ratio")
		r.more("fed.degraded_frac", float64(st.degraded)/float64(st.queries), "ratio")
	}
	return nil
}
