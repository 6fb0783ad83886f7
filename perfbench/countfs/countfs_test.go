package countfs

import (
	"path/filepath"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

func TestCountsExactOps(t *testing.T) {
	dir := t.TempDir()
	f := New(etl.OSFS{})
	h, err := f.Create(filepath.Join(dir, "a.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"hello", ", ", "world"} {
		if _, err := h.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(filepath.Join(dir, "missing")); !etl.IsNotExist(err) {
		t.Fatalf("reading a missing file: %v", err)
	}
	if err := f.Rename(filepath.Join(dir, "missing"), filepath.Join(dir, "b")); err == nil {
		t.Fatal("renaming a missing file succeeded")
	}
	want := Counts{Syncs: 1, WriteBytes: 12, Creates: 1, Renames: 2}
	if got := f.Counts(); got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	if sum := want.Add(want); sum.WriteBytes != 24 || sum.Syncs != 2 {
		t.Fatalf("Add = %+v", sum)
	}
}

// TestCountsDurableStore drives a real durable store through the
// counting FS: every appended block must reach the disk through it,
// and the store must reopen with every block.
func TestCountsDurableStore(t *testing.T) {
	dir := t.TempDir()
	f := New(etl.OSFS{})
	s, err := etl.Open(dir, etl.Config{FS: f, SegmentBlocks: 4})
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
	got := f.Counts()
	if got.Syncs == 0 || got.WriteBytes == 0 || got.Creates == 0 {
		t.Fatalf("durable store left no trace in the counts: %+v", got)
	}
	if got.Failed != 0 {
		t.Fatalf("%d failed ops on a healthy disk", got.Failed)
	}
	re, err := etl.Open(dir, etl.Config{FS: New(etl.OSFS{})})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Height() != 9 {
		t.Fatalf("reopened store at height %d, want 9", re.Height())
	}
}
