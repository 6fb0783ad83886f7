// Command chainalyze replays a chain file written by heliumsim and
// runs the chain-derived analyses of §3–§5 and §7 over it (the
// p2p/IP analyses need the live world; use heliumsim -report for the
// complete set).
//
// Usage:
//
//	chainalyze chain.jsonl
//	chainalyze -store ./etl-store chain.jsonl   # reuse the durable index across runs
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/names"
)

func main() {
	pocWeight := flag.Float64("poc-weight", 600, "notional transactions per sampled PoC receipt")
	storeDir := flag.String("store", "", "durable ETL store directory: reloaded if present, created and caught up otherwise")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: chainalyze [-poc-weight N] [-store DIR] <chain.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "chainalyze:", err)
		os.Exit(1)
	}
	defer f.Close()
	c, err := chain.ReadChain(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chainalyze: replay:", err)
		os.Exit(1)
	}
	var store *etl.Store
	if *storeDir != "" {
		start := time.Now()
		store, err = etl.Open(*storeDir, etl.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chainalyze: store:", err)
			os.Exit(1)
		}
		defer store.Close()
		reloaded := store.Height()
		opened := time.Since(start)
		if gaps := store.Gaps(); len(gaps) > 0 {
			fmt.Printf("store: %d quarantined range(s) %v — repairing from chain file\n", len(gaps), gaps)
			if err := store.Repair(c); err != nil {
				fmt.Fprintln(os.Stderr, "chainalyze: store repair:", err)
				os.Exit(1)
			}
		}
		if err := store.BulkLoad(c); err != nil {
			fmt.Fprintln(os.Stderr, "chainalyze: store load:", err)
			os.Exit(1)
		}
		h := store.Health()
		fmt.Printf("store: %s reloaded to height %d in %v, caught up to %d (%d/%d segments loaded, %d WAL blocks)\n",
			*storeDir, reloaded, opened.Round(time.Millisecond), store.Height(),
			h.SegmentsLoaded, h.Segments, h.WALDepth)
	} else {
		start := time.Now()
		store = etl.FromChain(c)
		st := store.Stats()
		fmt.Printf("etl: %d segments (+%d pending blocks) in %v, %d type / %d actor postings\n",
			st.Segments, st.PendingBlocks, time.Since(start).Round(time.Millisecond),
			st.TypePostings, st.ActorPostings)
	}
	// The store is measured in place — MeasureStore never rebuilds an
	// index the store already holds.
	printReport(c, peoplesnet.MeasureStoreWith(store, nil,
		peoplesnet.MeasureOptions{ResaleTopN: 10, PoCWeight: *pocWeight}))
}

// printReport renders the chain-derived analyses of a study.
func printReport(c *chain.Chain, study *peoplesnet.Study) {
	s, m, g, o := study.Summary, study.Moves, study.Growth, study.Ownership
	r, tr, audit := study.Resale, study.Traffic, study.Audit
	fmt.Printf("chain: %d blocks to height %d, %d txns (notional), PoC %.2f%%\n",
		len(c.Blocks()), c.Height(), s.TotalTxns, s.PoCFraction*100)

	fmt.Printf("moves: %d hotspots, never-moved %.1f%%, >500 km moves %d\n",
		m.Hotspots, m.NeverMovedFrac*100, len(m.LongMoves))
	fmt.Printf("       intervals: day %.1f%% / week %.1f%% / month %.1f%%\n",
		m.WithinDayFrac*100, m.WithinWeekFrac*100, m.WithinMoFrac*100)

	fmt.Printf("growth: %d adds total, %.0f/day at the end\n", g.Total, g.FinalRate)

	fmt.Printf("owners: %d, own-1 %.1f%%, ≤3 %.1f%%, max %d\n",
		o.Owners, o.OwnOneFrac*100, o.AtMostThree*100, o.MaxOwned)

	fmt.Printf("resale: %d transfers over %d hotspots (%.1f%%), zero-DC %.1f%%\n",
		r.TotalTransfers, r.TransferredHotspots, r.TransferredFrac*100, r.ZeroDCFrac*100)

	fmt.Printf("traffic: %d packets, console share %.1f%%, final %.2f pkt/s\n",
		tr.TotalPackets, tr.ConsoleShare*100, tr.FinalPktPerSec)
	if tr.SpikeStartBlock > 0 {
		fmt.Printf("         spike blocks %d–%d (peak %.0f pkts/close)\n",
			tr.SpikeStartBlock, tr.SpikeEndBlock, tr.SpikePeak)
	}

	fmt.Printf("audit: %d silent movers, %d lying witnesses, %d clique suspects\n",
		len(audit.SilentMovers), len(audit.LyingWitness), len(audit.CliqueSuspects))
	for i, sm := range audit.SilentMovers {
		if i >= 5 {
			break
		}
		fmt.Printf("  silent mover %q: witnesses %.0f km from asserted location\n",
			names.FromAddress(sm.Hotspot), sm.MedianWitnessKm)
	}
}
