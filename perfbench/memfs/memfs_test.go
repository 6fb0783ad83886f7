package memfs

import (
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

func TestFileOps(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/s/sub"); err != nil {
		t.Fatal(err)
	}
	h, err := f.Create("/s/a.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/s/a.tmp", "/s/a"); err != nil {
		t.Fatal(err)
	}
	// The handle follows its file across the rename.
	if _, err := h.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if b, err := f.ReadFile("/s/a"); err != nil || string(b) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if names, err := f.ReadDir("/s"); err != nil || len(names) != 2 || names[0] != "a" || names[1] != "sub" {
		t.Fatalf("ReadDir = %v, %v", names, err)
	}
	a, err := f.Append("/s/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if f.Bytes() != int64(len("hello world!")) {
		t.Fatalf("Bytes = %d", f.Bytes())
	}
	if r := f.Resident(); r < f.Bytes() {
		t.Fatalf("Resident = %d, less than the %d bytes held", r, f.Bytes())
	}
	if err := f.Remove("/s/a"); err != nil {
		t.Fatal(err)
	}
	if r := f.Resident(); r != 0 {
		t.Fatalf("Resident = %d with no file left", r)
	}
	if _, err := f.ReadFile("/s/a"); !etl.IsNotExist(err) {
		t.Fatalf("removed file reads: %v", err)
	}
	if _, err := f.Create("/missing/x"); !etl.IsNotExist(err) {
		t.Fatalf("create in a missing dir: %v", err)
	}
	if _, err := f.ReadDir("/missing"); !etl.IsNotExist(err) {
		t.Fatalf("ReadDir of a missing dir: %v", err)
	}
}

// TestDurableStoreReopens runs a durable store on the RAM FS and
// reopens it: the store's whole durable path must work unchanged.
func TestDurableStoreReopens(t *testing.T) {
	f := New()
	s, err := etl.Open("/store", etl.Config{FS: f, SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := chain.NewChain(time.Date(2019, 7, 29, 0, 0, 0, 0, time.UTC))
	for h := int64(0); h < 10; h++ {
		b, err := c.AppendBlock(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := etl.Open("/store", etl.Config{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Height() != 9 || len(re.Gaps()) != 0 {
		t.Fatalf("reopened at height %d with gaps %v", re.Height(), re.Gaps())
	}
}
