package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"peoplesnet"
)

// testConfig is a scaled-down world: seconds to generate, sweep and
// recover, with every query class still non-trivial.
func testConfig() peoplesnet.WorldConfig {
	cfg := peoplesnet.SmallWorld(7)
	cfg.Days = 200
	cfg.TargetHotspots = 300
	return cfg
}

// classRow matches one class line of a sweep table: name, queries,
// P50, P99, precision, verified/wanted.
var classRow = regexp.MustCompile(`^  ([a-z-]+)\s+\d+\s+\d+\s+\d+\s+[0-9.]+\s+(\d+)/(\d+)$`)

// TestSweepVerifiesEveryClass runs the load sweep over 1 and 2 region
// shards following one upstream store; every class of every topology
// must verify all its checked queries against the raw-chain oracle.
func TestSweepVerifiesEveryClass(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, testConfig(), options{
		scale: "test", shards: "1,2", partitions: "region",
		queries: 4, concurrency: 2, verify: 4, timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("sweep: %v\n%s", err, out.String())
	}
	tables, rows := strings.Count(out.String(), "partition=region shards="), 0
	for _, line := range strings.Split(out.String(), "\n") {
		m := classRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		if m[2] != "4" || m[3] != "4" {
			t.Errorf("class %s verified %s/%s, want 4/4", m[1], m[2], m[3])
		}
	}
	if tables != 2 || rows != 2*8 {
		t.Fatalf("sweep printed %d tables and %d class rows, want 2 and 16:\n%s", tables, rows, out.String())
	}
}

// TestMTTRTrial runs one kill/recover trial on a 2-shard durable
// cluster in both modes.
func TestMTTRTrial(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, testConfig(), options{scale: "test", shards: "2", mttr: true, trials: 1})
	if err != nil {
		t.Fatalf("mttr: %v\n%s", err, out.String())
	}
	row := regexp.MustCompile(`(?m)^  2\s+([0-9.]+)\s+([0-9.]+)\s+[0-9.]+x$`).FindStringSubmatch(out.String())
	if row == nil {
		t.Fatalf("no MTTR row for 2 shards:\n%s", out.String())
	}
	if row[1] == "0.0" || row[2] == "0.0" {
		t.Fatalf("MTTR row reports a zero recovery time: %q", row[0])
	}
}
