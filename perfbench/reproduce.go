package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"peoplesnet"
	"peoplesnet/internal/etl"
)

// reproduce is the researcher's wait: the paper's batch reproduction.
// Set-up generates the world (Simulate) reproduceRounds times; the
// report stage then runs etl.FromChain → MeasureStore → RenderText →
// CoverageStudy reproduceRounds times on the last world, and the field
// phase runs the four §8 experiments once. It never touches the
// federation or HTTP. A traced run runs one more report stage, untraced,
// first, and reports how much longer the traced stages took as the
// tracing overhead.
func reproduce(ctx context.Context, cfg config, r *report) error {
	p, err := reproducePass(ctx, cfg, r)
	if err != nil || r.tr != nil {
		return err
	}
	r.endToEnd("setup_s", p.setup.Seconds(), "s")
	r.endToEnd("latency_ms", ms(p.report), "ms")
	r.endToEnd("work_s", p.field.Seconds(), "s")
	r.endToEnd("peak_rss_mb", selfPeakRSSMB(), "MB")
	return nil
}

// reproduceRounds is how many times a pass generates the world and
// runs the report stage; the times reported are the medians.
const reproduceRounds = 3

// passTimes holds a pass's median set-up and report-stage times and
// its field phase's time; in a traced pass, untraced is the one report
// stage run without spans.
type passTimes struct {
	setup, report, field, untraced time.Duration
	digest                         string
}

// fieldRuns are the §8 experiments, in the paper's order.
var fieldRuns = []struct {
	name   string
	metric string
	config func(seed uint64) peoplesnet.FieldConfig
}{
	{"best_case", "fieldtest.best_case_s", peoplesnet.BestCaseExperiment},
	{"residential", "fieldtest.residential_s", peoplesnet.ResidentialExperiment},
	{"urban_walk", "fieldtest.urban_walk_s", peoplesnet.UrbanWalkExperiment},
	{"suburban_walk", "fieldtest.suburban_walk_s", peoplesnet.SuburbanWalkExperiment},
}

func reproducePass(ctx context.Context, cfg config, r *report) (passTimes, error) {
	var p passTimes
	var w *peoplesnet.World
	var setups []float64
	for round := 0; round < reproduceRounds; round++ {
		if err := ctx.Err(); err != nil {
			return p, err
		}
		// Drop the last world and collect it outside the timing.
		w = nil
		runtime.GC()
		r.attempted++
		t := time.Now()
		var err error
		if w, err = world(r, 0); err != nil {
			return p, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	p.setup = time.Duration(median(setups) * float64(time.Second))
	r.progress("world generated %d times", reproduceRounds)

	if tr := r.tr; tr != nil {
		r.tr = nil
		runtime.GC()
		d, digest := reportStage(r, w, 0)
		r.tr = tr
		p.untraced, p.digest = d, digest
	}
	// The timed phase: report stages and field runs.
	root := r.tr.Begin("phase.reproduce", 0, 0)
	var reports []float64
	for round := 0; round < reproduceRounds; round++ {
		if err := ctx.Err(); err != nil {
			return p, err
		}
		runtime.GC()
		d, digest := reportStage(r, w, root)
		reports = append(reports, d.Seconds())
		r.check(p.digest == "" || digest == p.digest, "report stage %d digest %s differs from %s", round, digest, p.digest)
		p.digest = digest
	}
	p.report = time.Duration(median(reports) * float64(time.Second))
	if r.tr != nil {
		r.perLayer("trace.overhead_frac", p.report.Seconds()/p.untraced.Seconds()-1, "ratio")
	}
	r.progress("report stage run %d times", reproduceRounds)

	// The report stage's world and index are garbage now; collect them
	// outside the timed field phase so it starts from the same heap.
	w = nil
	runtime.GC()

	h := sha256.New()
	fmt.Fprintf(h, "report %s\n", p.digest)
	a0 := allocBytes()
	tf := time.Now()
	for _, fr := range fieldRuns {
		if err := ctx.Err(); err != nil {
			return p, err
		}
		r.attempted++
		sp := r.tr.Begin("fieldtest."+fr.name, root, 0)
		t := time.Now()
		res, err := peoplesnet.RunField(fr.config(worldSeed))
		r.more(fr.metric, time.Since(t).Seconds(), "s")
		r.tr.End(sp)
		if err != nil {
			r.failed++
			r.check(false, "field %s: %v", fr.name, err)
			continue
		}
		acks := res.CorrectAck + res.CorrectNack + res.IncorrectAck + res.IncorrectNack
		r.check(res.Sent > 0 && res.CloudReceived <= res.Sent, "field %s: sent %d, received %d", fr.name, res.Sent, res.CloudReceived)
		r.check(acks == res.Sent, "field %s: ack outcomes %d != sent %d", fr.name, acks, res.Sent)
		prr := float64(res.CloudReceived) / float64(res.Sent)
		r.check(!math.IsNaN(prr), "field %s: PRR undefined", fr.name)
		fmt.Fprintf(h, "field %s sent=%d received=%d ack=%d/%d/%d/%d\n", fr.name, res.Sent, res.CloudReceived,
			res.CorrectAck, res.CorrectNack, res.IncorrectAck, res.IncorrectNack)
	}
	p.field = time.Since(tf)
	r.progress("field runs done")
	r.tr.End(root)
	r.more("fieldtest.alloc_gb", float64(allocBytes()-a0)/(1<<30), "GB")
	p.digest = hex.EncodeToString(h.Sum(nil))[:16]
	r.digest = p.digest
	if r.tr != nil {
		r.perLayer("trace.unaccounted_frac", r.tr.unaccounted(root), "ratio")
	}
	return p, nil
}

// reportStage runs etl.FromChain → MeasureStore → RenderText →
// CoverageStudy on w, checks the outputs, and returns the stage's wall
// time and a digest of the report text and coverage findings.
func reportStage(r *report, w *peoplesnet.World, root int32) (time.Duration, string) {
	t0 := time.Now()
	r.attempted++
	sp := r.tr.Begin("etl.index", root, 0)
	ti := time.Now()
	store := etl.FromChain(w.Chain)
	r.more("etl.index_s", time.Since(ti).Seconds(), "s")
	r.tr.End(sp)

	r.attempted++
	sp = r.tr.Begin("core.measure", root, 0)
	tm := time.Now()
	study := peoplesnet.MeasureStore(store, w)
	r.perLayer("core.measure_s", time.Since(tm).Seconds(), "s")
	r.tr.End(sp)

	r.attempted++
	sp = r.tr.Begin("core.render", root, 0)
	tr := time.Now()
	text := study.RenderText()
	r.more("core.render_ms", ms(time.Since(tr)), "ms")
	r.tr.End(sp)

	r.attempted++
	sp = r.tr.Begin("coverage.study", root, 0)
	tc := time.Now()
	cov := peoplesnet.CoverageStudy(w)
	r.more("coverage.study_s", time.Since(tc).Seconds(), "s")
	r.tr.End(sp)
	d := time.Since(t0)

	r.check(strings.Count(text, "\n") > 20, "report has only %d lines", strings.Count(text, "\n"))
	r.check(study.Summary.TotalTxns > 0 && study.Summary.TotalTxns >= w.Chain.TxnCount(),
		"report counts %d transactions, chain holds %d", study.Summary.TotalTxns, w.Chain.TxnCount())
	for _, f := range []float64{cov.Radius300m.Fraction, cov.ConvexHull.Fraction, cov.Hull25km.Fraction, cov.RadialRSSI.Fraction} {
		r.check(f > 0 && f <= 1, "coverage fraction %v outside (0, 1]", f)
	}
	r.check(cov.Hotspots > 0 && cov.Challenges > 0, "coverage study saw %d hotspots, %d challenges", cov.Hotspots, cov.Challenges)
	h := sha256.New()
	fmt.Fprintf(h, "%s\ncoverage %d %d %.9f %.9f %.9f %.9f\n", text, cov.Hotspots, cov.Challenges,
		cov.Radius300m.Fraction, cov.ConvexHull.Fraction, cov.Hull25km.Fraction, cov.RadialRSSI.Fraction)
	return d, hex.EncodeToString(h.Sum(nil))
}
