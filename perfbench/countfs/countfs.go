// Package countfs is an etl.FS that counts what a durable store asks
// of the filesystem: syncs, bytes written, file creates and renames.
// Every call passes through to an inner FS unchanged, so the store's
// flush policy and durability are exactly those of the inner FS.
//
// It lives in its own package because the fsdiscipline lint pass
// forbids direct package-os file calls in any package that mentions
// etl.FS, and the benchmark harness creates and removes its store
// directories with package os.
package countfs

import (
	"sync/atomic"

	"peoplesnet/internal/etl"
)

// Counts is a snapshot of one FS's counters.
type Counts struct {
	Syncs      int64 `json:"syncs"`
	WriteBytes int64 `json:"write_bytes"`
	// Creates counts files opened by Create or Append.
	Creates int64 `json:"creates"`
	Renames int64 `json:"renames"`
	// Failed counts calls that returned an error other than a missing
	// file.
	Failed int64 `json:"failed"`
}

// Add returns the field-wise sum of c and o.
func (c Counts) Add(o Counts) Counts {
	return Counts{
		Syncs:      c.Syncs + o.Syncs,
		WriteBytes: c.WriteBytes + o.WriteBytes,
		Creates:    c.Creates + o.Creates,
		Renames:    c.Renames + o.Renames,
		Failed:     c.Failed + o.Failed,
	}
}

// FS wraps an inner etl.FS and counts every call. It is safe for
// concurrent use; give each store its own FS to count per store.
type FS struct {
	inner etl.FS

	syncs, writeBytes        atomic.Int64
	creates, renames, failed atomic.Int64
}

// New wraps inner.
func New(inner etl.FS) *FS { return &FS{inner: inner} }

// Counts snapshots the counters.
func (f *FS) Counts() Counts {
	return Counts{
		Syncs:      f.syncs.Load(),
		WriteBytes: f.writeBytes.Load(),
		Creates:    f.creates.Load(),
		Renames:    f.renames.Load(),
		Failed:     f.failed.Load(),
	}
}

// note counts a failed call; a missing file is an answer the store
// asks for (Open probes for its files), not a failure.
func (f *FS) note(err error) error {
	if err != nil && !etl.IsNotExist(err) {
		f.failed.Add(1)
	}
	return err
}

// MkdirAll implements etl.FS.
func (f *FS) MkdirAll(dir string) error { return f.note(f.inner.MkdirAll(dir)) }

// ReadDir implements etl.FS.
func (f *FS) ReadDir(dir string) ([]string, error) {
	names, err := f.inner.ReadDir(dir)
	return names, f.note(err)
}

// ReadFile implements etl.FS.
func (f *FS) ReadFile(name string) ([]byte, error) {
	b, err := f.inner.ReadFile(name)
	return b, f.note(err)
}

// Create implements etl.FS.
func (f *FS) Create(name string) (etl.File, error) {
	f.creates.Add(1)
	return f.wrap(f.inner.Create(name))
}

// Append implements etl.FS.
func (f *FS) Append(name string) (etl.File, error) {
	f.creates.Add(1)
	return f.wrap(f.inner.Append(name))
}

func (f *FS) wrap(h etl.File, err error) (etl.File, error) {
	if err != nil {
		return nil, f.note(err)
	}
	return &file{fs: f, inner: h}, nil
}

// Rename implements etl.FS.
func (f *FS) Rename(oldname, newname string) error {
	f.renames.Add(1)
	return f.note(f.inner.Rename(oldname, newname))
}

// Remove implements etl.FS.
func (f *FS) Remove(name string) error {
	return f.note(f.inner.Remove(name))
}

// file counts writes and syncs on one handle.
type file struct {
	fs    *FS
	inner etl.File
}

func (h *file) Write(p []byte) (int, error) {
	n, err := h.inner.Write(p)
	h.fs.writeBytes.Add(int64(n))
	return n, h.fs.note(err)
}

func (h *file) Sync() error {
	h.fs.syncs.Add(1)
	return h.fs.note(h.inner.Sync())
}

func (h *file) Close() error { return h.fs.note(h.inner.Close()) }
