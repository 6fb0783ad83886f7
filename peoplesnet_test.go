package peoplesnet

import (
	"reflect"
	"strings"
	"testing"

	"peoplesnet/internal/core"
	"peoplesnet/internal/etl"
)

func TestSimulateMeasureRender(t *testing.T) {
	world, err := Simulate(SmallWorld(5))
	if err != nil {
		t.Fatal(err)
	}
	study := Measure(world)
	report := study.RenderText()
	for _, want := range []string{
		"§3 Transaction mix",
		"Fig 2", "Fig 3", "Fig 4", "Fig 5",
		"ownership", "Fig 7", "Fig 8",
		"Table 1", "Fig 10/11", "incentive audit",
		"Spectrum",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if len(report) < 1500 {
		t.Fatalf("report too short: %d bytes", len(report))
	}
}

// TestStoreMeasureMatchesRawChain pins the store as a lossless read
// path: the suite measured through MeasureStore equals the suite over
// a Dataset that scans the raw chain, analysis by analysis and in the
// rendered report.
func TestStoreMeasureMatchesRawChain(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		world, err := Simulate(SmallWorld(seed))
		if err != nil {
			t.Fatal(err)
		}
		raw := measure(core.FromSimulation(world), world, DefaultMeasureOptions())
		got := MeasureStore(etl.FromChain(world.Chain), world)
		for _, a := range []struct {
			name       string
			raw, store any
		}{
			{"Summary", raw.Summary, got.Summary},
			{"Moves", raw.Moves, got.Moves},
			{"Growth", raw.Growth, got.Growth},
			{"Ownership", raw.Ownership, got.Ownership},
			{"Resale", raw.Resale, got.Resale},
			{"Traffic", raw.Traffic, got.Traffic},
			{"Routers", raw.Routers, got.Routers},
			{"ISPs", raw.ISPs, got.ISPs},
			{"Relays", raw.Relays, got.Relays},
			{"Audit", raw.Audit, got.Audit},
		} {
			if !reflect.DeepEqual(a.raw, a.store) {
				t.Errorf("seed %d: %s differs between the raw chain and the store", seed, a.name)
			}
		}
		if raw.RenderText() != got.RenderText() {
			t.Errorf("seed %d: rendered report differs between the raw chain and the store", seed)
		}
	}
}

func TestCoverageStudy(t *testing.T) {
	world, err := Simulate(SmallWorld(6))
	if err != nil {
		t.Fatal(err)
	}
	cov := CoverageStudy(world)
	if cov.Hotspots == 0 || cov.Challenges == 0 {
		t.Fatalf("coverage inputs empty: %+v", cov)
	}
	// Fig 12's ordering at any scale.
	if !(cov.Radius300m.Fraction <= cov.RadialRSSI.Fraction) {
		t.Fatalf("model ordering broken: 300m %v > radial %v",
			cov.Radius300m.Fraction, cov.RadialRSSI.Fraction)
	}
	if cov.WitnessDistKm.N() == 0 || cov.WitnessRSSI.N() == 0 {
		t.Fatal("witness CDFs empty")
	}
	// Fig 14: witness RSSIs are LoRa-plausible (median around
	// −110 dBm).
	med := cov.WitnessRSSI.Median()
	if med > -70 || med < -135 {
		t.Fatalf("witness RSSI median = %v", med)
	}
}

func TestRunFieldFacade(t *testing.T) {
	res, err := RunField(SuburbanWalkExperiment(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.PRR() <= 0 {
		t.Fatalf("field experiment empty: %+v", res)
	}
}
