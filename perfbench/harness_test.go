package main

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0.0001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of nothing is a number")
	}
}

// TestTailTenBeyond pins the reporting rule: a tail percentile needs
// at least ten samples beyond it.
func TestTailTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {2000, 0.99, true},
		{100, 0.90, true}, {99, 0.90, false}, {10, 0.5, false}, {20, 0.5, true},
	} {
		xs := make([]float64, c.n)
		if _, ok := tail(xs, c.q); ok != c.ok {
			t.Errorf("n=%d q=%v: supported=%v, want %v (beyond=%d)", c.n, c.q, ok, c.ok, beyond(c.n, c.q))
		}
	}
}

func span(id, parent int32, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span(1, 0, 0, 100*ms),       // root
		span(2, 1, 10*ms, 40*ms),    // child
		span(3, 1, 30*ms, 60*ms),    // overlaps child 2: union 10..60
		span(4, 1, 90*ms, 120*ms),   // runs past the root: clipped to 90..100
		span(5, 2, 15*ms, 25*ms),    // grandchild
		span(6, 0, 200*ms, 210*ms),  // another root
		span(7, 6, 200*ms, 210*ms),  // covers its parent entirely
		span(8, 1, 140*ms, 150*ms),  // outside its parent: covers nothing
		span(9, 3, 0*ms, 1000*ms),   // child wider than parent 3
		span(10, 1, 10*ms, 40*ms),   // duplicate of span 2
		span(11, 1, 60*ms, 60*ms),   // empty
		span(12, 1, 55*ms, 65*ms),   // extends the 10..60 run to 65
		span(13, 0, 300*ms, 300*ms), // empty root
	}
	self := selfTimes(spans)
	want := map[int32]time.Duration{
		1:  100*ms - (55*ms + 10*ms), // covered: 10..65 and 90..100
		2:  30*ms - 10*ms,
		3:  0,
		5:  10 * ms,
		6:  0,
		7:  10 * ms,
		13: 0,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if byName := selfByName(spans); byName["s"] != total {
		t.Errorf("self time by name = %v, want the sum %v", byName["s"], total)
	}
}

func TestTracerUnaccounted(t *testing.T) {
	tr := newTracer()
	root := tr.Begin("phase", 0, 0)
	time.Sleep(2 * time.Millisecond)
	child := tr.Begin("layer", root, 1)
	time.Sleep(20 * time.Millisecond)
	tr.End(child)
	tr.End(root)
	if f := tr.unaccounted(root); f <= 0 || f >= 0.5 {
		t.Fatalf("unaccounted share %v, want a small positive share", f)
	}
	var off *Tracer
	if id := off.Begin("x", 0, 0); id != 0 {
		t.Fatalf("disabled tracer returned span %d", id)
	}
	off.End(0)
	if len(off.Spans()) != 0 {
		t.Fatal("disabled tracer kept spans")
	}
}

func TestPoissonArrivals(t *testing.T) {
	due := poissonArrivals(rand.New(rand.NewSource(1)), 100, 20*time.Second)
	if n := len(due); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals at 100/s over 20s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 20*time.Second {
			t.Fatalf("arrival %d out of order or range: %v", i, due[i])
		}
	}
	again := poissonArrivals(rand.New(rand.NewSource(1)), 100, 20*time.Second)
	if len(again) != len(due) || again[17] != due[17] {
		t.Fatal("same seed gave different arrivals")
	}
}

// TestOpenLoopLateness checks the open loop's two clocks: a request
// queued behind busy connections is charged its wait in Latency, while
// Late only counts how far the generator overslept once a connection
// was free.
func TestOpenLoopLateness(t *testing.T) {
	const work = 20 * time.Millisecond
	// Six requests due at once on two connections: three waves.
	due := make([]time.Duration, 6)
	got := openLoop(context.Background(), time.Now(), due, 2, func(int) error {
		time.Sleep(work)
		return nil
	})
	var worst time.Duration
	for i, o := range got {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Service < work {
			t.Errorf("op %d: service %v shorter than the work", i, o.Service)
		}
		if o.Late > 5*time.Millisecond {
			t.Errorf("op %d: generator late by %v with a connection free", i, o.Late)
		}
		worst = max(worst, o.Latency)
	}
	if worst < 3*work {
		t.Fatalf("worst latency %v: queueing behind busy connections was not charged", worst)
	}

	// Spaced arrivals on an idle system wait for their due time.
	start := time.Now()
	spaced := []time.Duration{0, 30 * time.Millisecond}
	sent := make([]time.Duration, 2)
	openLoop(context.Background(), start, spaced, 2, func(i int) error {
		sent[i] = time.Since(start)
		return nil
	})
	if sent[1] < 30*time.Millisecond {
		t.Fatalf("second request sent at %v, before it was due", sent[1])
	}

	// A cancelled run reports unstarted requests as failed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range openLoop(ctx, time.Now(), []time.Duration{time.Hour}, 1, func(int) error { return nil }) {
		if o.Err == nil {
			t.Fatal("request due after cancellation ran")
		}
	}
}

func TestFollowerLag(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Blocks appended at 0, 10, 20, 30 ms; the tail emits them at 5,
	// 25, 26 and 31 ms.
	appended := []time.Time{at(0), at(10), at(20), at(30)}
	tailed := []time.Time{at(5), at(25), at(26), at(31)}
	want := []float64{1, 1, 2, 1}
	got := followerLag(appended, tailed)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lag = %v, want %v", got, want)
		}
	}
}

func TestUnaccountedChildren(t *testing.T) {
	ms := time.Millisecond
	tr := &Tracer{spans: []Span{
		span(1, 0, 0, 100*ms),     // the phase
		span(2, 1, 0, 40*ms),      // request 1
		span(3, 2, 0, 30*ms),      // its layer call
		span(4, 1, 50*ms, 100*ms), // request 2
		span(5, 4, 50*ms, 100*ms), // covers it entirely
	}}
	// Requests last 40+50 ms; 10 ms of them are uncovered. The 10 ms
	// gap between the requests does not count.
	if got, want := tr.unaccountedChildren(1), 10.0/90; math.Abs(got-want) > 1e-12 {
		t.Fatalf("unaccountedChildren = %v, want %v", got, want)
	}
	if got := tr.unaccountedChildren(5); !math.IsNaN(got) {
		t.Fatalf("a span without children gave %v", got)
	}
}

// TestDrawRequestsRounds checks the mix: every class gets the same
// share, and a seed always draws the same sequence.
func TestDrawRequestsRounds(t *testing.T) {
	pool := map[string][]exploreReq{}
	for _, c := range exploreClasses {
		for k := 0; k < 40; k++ {
			pool[c] = append(pool[c], exploreReq{class: c, uri: c + "/" + string(rune('a'+k))})
		}
	}
	pool["stats"] = pool["stats"][:1]
	n := 3*len(exploreClasses) + 4
	seq := drawRequests(rand.New(rand.NewSource(3)), pool, n)
	if len(seq) != n {
		t.Fatalf("drew %d requests, want %d", len(seq), n)
	}
	for r := 0; r+len(exploreClasses) <= n; r += len(exploreClasses) {
		seen := map[string]bool{}
		for _, q := range seq[r : r+len(exploreClasses)] {
			seen[q.class] = true
		}
		if len(seen) != len(exploreClasses) {
			t.Fatalf("round at %d holds %d classes, want all %d", r, len(seen), len(exploreClasses))
		}
	}
	again := drawRequests(rand.New(rand.NewSource(3)), pool, n)
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatalf("same seed drew a different request at %d", i)
		}
	}
}

func TestRSSSampler(t *testing.T) {
	if residentBytes() == 0 {
		t.Skip("no /proc/self/statm")
	}
	s := startRSSSampler()
	time.Sleep(3 * rssEvery)
	all := s.Stop()
	if all <= 0 {
		t.Fatalf("peak %v MB", all)
	}
	if again := s.Stop(); again != all {
		t.Fatalf("second Stop gave %v, first %v", again, all)
	}

	// Memory the stores hold is taken off every sample.
	s = startRSSSampler()
	s.swap(func() func() int64 { return func() int64 { return 1 << 50 } })
	s.mu.Lock()
	s.peak = 0
	s.mu.Unlock()
	time.Sleep(3 * rssEvery)
	if got := s.Stop(); got != 0 {
		t.Fatalf("peak %v MB with every byte held by stores, want 0", got)
	}
}

func TestClassGeomean(t *testing.T) {
	lat := map[string]samples{}
	for i, c := range exploreClasses {
		med := 1.0 // half the classes at 1 ms, half at 100 ms
		if i%2 == 1 {
			med = 100
		}
		lat[c] = samples{med / 2, med, 1e6}
	}
	if got, ok := classGeomean(lat, exploreClasses); !ok || math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean = %v, %v; want 10", got, ok)
	}
	delete(lat, "study")
	if _, ok := classGeomean(lat, exploreClasses); ok {
		t.Fatal("geomean reported with a class missing")
	}
}

func TestLayerShares(t *testing.T) {
	ms := time.Millisecond
	named := func(id, parent int32, name string, start, end time.Duration) Span {
		return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	// Two roots, 100 ms and 50 ms: 150 ms in all.
	spans := []Span{
		named(1, 0, "phase.catchup", 0, 100*ms),
		named(2, 1, "etl.append", 0, 30*ms),
		named(3, 1, "etl.append", 30*ms, 45*ms),
		named(4, 1, "fed.catchup", 45*ms, 75*ms),
		named(5, 4, "fed.query", 50*ms, 60*ms), // fed's self time: 20 + 10 ms
		named(6, 0, "simnet.generate", 200*ms, 250*ms),
	}
	got := layerShares(spans)
	want := map[string]float64{"etl": 45.0 / 150, "fed": 30.0 / 150, "simnet": 50.0 / 150}
	for _, l := range layers {
		if math.Abs(got[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, got[l], want[l])
		}
	}
	if len(got) != len(layers) {
		t.Errorf("%d shares, want one per layer (%d)", len(got), len(layers))
	}
}

func TestCheckMetrics(t *testing.T) {
	want := []string{"a", "b"}
	ok := map[string]metric{"a": {1, "s"}, "b": {2, "ms"}}
	if err := checkMetrics(ok, want); err != nil {
		t.Fatalf("complete metrics refused: %v", err)
	}
	for name, m := range map[string]map[string]metric{
		"missing":    {"a": {1, "s"}},
		"extra":      {"a": {1, "s"}, "b": {2, "ms"}, "c": {3, "s"}},
		"not finite": {"a": {1, "s"}, "b": {math.NaN(), "ms"}},
	} {
		if err := checkMetrics(m, want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
