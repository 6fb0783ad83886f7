package fieldtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"
)

// fieldGolden is the readable part of one pinned §8 run: the headline
// counts behind PRR, the Tables 2/3 ACK-validity cells, and the shape
// of the miss-run distribution. Digest covers everything else.
type fieldGolden struct {
	Sent, CloudReceived                                  int
	CorrectAck, CorrectNack, IncorrectAck, IncorrectNack int
	// MissRuns counts the miss runs; LongestMiss is the longest.
	MissRuns, LongestMiss int
	Digest                string
}

// resultDigest is a SHA-256 over the whole Result: every
// PacketOutcome in send order, every miss run, Ferried in sorted key
// order, and every RSSI CDF sample (sorted) per hotspot. Floats are
// hashed by their bits, so the digest moves on any change to the
// random draw order or the radio arithmetic.
func resultDigest(r *Result) string {
	h := sha256.New()
	f64 := func(x float64) { putU64(h, math.Float64bits(x)) }
	putU64(h, uint64(len(r.Packets)))
	for _, p := range r.Packets {
		putU64(h, uint64(p.Counter))
		f64(p.SentAt)
		f64(p.Loc.Lat)
		f64(p.Loc.Lon)
		putU64(h, uint64(p.Receivers))
		putU64(h, uint64(b2i(p.Cloud)))
		putU64(h, uint64(b2i(p.Acked)))
		putU64(h, uint64(p.AckWindow))
	}
	for _, n := range []int{r.Sent, r.CloudReceived, r.CorrectAck, r.CorrectNack, r.IncorrectAck, r.IncorrectNack} {
		putU64(h, uint64(n))
	}
	putU64(h, uint64(len(r.MissRuns)))
	for _, n := range r.MissRuns {
		putU64(h, uint64(n))
	}
	names := make([]string, 0, len(r.Ferried))
	for name := range r.Ferried {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "ferried %s %d\n", name, r.Ferried[name])
	}
	names = names[:0]
	for name := range r.RSSIByHotspot {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cdf := r.RSSIByHotspot[name]
		fmt.Fprintf(h, "rssi %s %d\n", name, cdf.N())
		// Points(N) yields every sample, ascending.
		for _, pt := range cdf.Points(cdf.N()) {
			f64(pt.X)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func goldenOf(r *Result) fieldGolden {
	g := fieldGolden{
		Sent: r.Sent, CloudReceived: r.CloudReceived,
		CorrectAck: r.CorrectAck, CorrectNack: r.CorrectNack,
		IncorrectAck: r.IncorrectAck, IncorrectNack: r.IncorrectNack,
		MissRuns: len(r.MissRuns),
		Digest:   resultDigest(r),
	}
	for _, n := range r.MissRuns {
		g.LongestMiss = max(g.LongestMiss, n)
	}
	return g
}

// TestFieldGolden pins the four §8 experiments bit for bit at the
// perfbench seed (4) and the paper-benchmark seed (2021). Any change
// to the driver's random draw order, the radio model, the device or
// router state machines, or the ACK bookkeeping shows up here. Update
// a row only for a deliberate change to the experiments' behaviour,
// never to quiet a refactor or an optimisation.
func TestFieldGolden(t *testing.T) {
	scenarios := map[string]func(uint64) Config{
		"BestCase":     BestCase,
		"Residential":  Residential,
		"UrbanWalk":    UrbanWalk,
		"SuburbanWalk": SuburbanWalk,
	}
	cases := []struct {
		scenario string
		seed     uint64
		want     fieldGolden
	}{
		{"BestCase", 4, fieldGolden{50892, 38517, 36183, 12375, 0, 2334, 771, 4446,
			"f6c0efbf4c93b1b105b642d6e9ac486d3d5a68ae3f327165ef7277c524dab3ab"}},
		{"Residential", 4, fieldGolden{12696, 9260, 7087, 3436, 0, 2173, 2530, 7,
			"16987fe27968960cc50df94a1a8ebc0e7a66951953e9ebd2eb3a2208ee5713ed"}},
		{"UrbanWalk", 4, fieldGolden{2341, 1552, 1378, 789, 0, 174, 336, 62,
			"209d2e92de08c74f440672d0a9a4a42f2083967a530edcdc023363dbf9031a3e"}},
		{"SuburbanWalk", 4, fieldGolden{1628, 1248, 804, 380, 0, 444, 263, 9,
			"8434c86dc3cd374052c6c6ad8c6b833d93df4e1fec9c4ccb2219f711e3fc7b5a"}},
		{"BestCase", 2021, fieldGolden{44624, 32263, 18521, 12361, 0, 13742, 756, 4446,
			"63f9dccaa31b0fbce7d02ddea7bba5238966c21cd993ee38d1e0ceba1169e0bd"}},
		{"Residential", 2021, fieldGolden{12701, 9351, 7053, 3350, 0, 2298, 2436, 6,
			"b085a61ba81ed9806949b969cdfc5c6265f1b8f3ec13b9770ca15feab1d5f209"}},
		{"UrbanWalk", 2021, fieldGolden{2153, 1375, 1115, 778, 0, 260, 370, 23,
			"7a2efabc5c6f6564c64f6e535383cfad3d97207165ea40936099b03d3e86f9f8"}},
		{"SuburbanWalk", 2021, fieldGolden{1778, 1477, 1148, 301, 0, 329, 226, 7,
			"8427bc3598a888c7c016288492531cad5581b6138cf047230b1d14a26bea383c"}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/seed%d", tc.scenario, tc.seed), func(t *testing.T) {
			if testing.Short() && tc.scenario == "BestCase" {
				t.Skip("24 virtual hours; skipped in -short")
			}
			res, err := Run(scenarios[tc.scenario](tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenOf(res); got != tc.want {
				t.Errorf("%s seed %d changed:\n got  %#v\n want %#v", tc.scenario, tc.seed, got, tc.want)
			}
		})
	}
}
