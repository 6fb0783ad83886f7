// Package memfs is a RAM-backed etl.FS: the benchmark's stand-in for a
// tmpfs store directory. Files are byte slices in a map, so a durable
// store runs its whole durable path (WAL, seal, publish, checkpoint)
// without touching the host's disk, and File.Sync is free, as it is on
// tmpfs. Nothing survives the process.
package memfs

import (
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"

	"peoplesnet/internal/etl"
)

// FS is a RAM filesystem. It is safe for concurrent use.
type FS struct {
	mu    sync.Mutex
	dirs  map[string]bool   // guarded by mu
	files map[string]*inode // guarded by mu
}

// inode is one file's contents; names map to inodes, so a handle keeps
// writing to its file across a rename or an unlink, as on a real FS.
type inode struct {
	data []byte // read and written only under the owning FS's lock
}

// New returns an empty FS.
func New() *FS {
	return &FS{dirs: map[string]bool{"/": true, ".": true}, files: map[string]*inode{}}
}

func clean(name string) string { return path.Clean(name) }

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// Bytes is the total size of every file.
func (f *FS) Bytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, ino := range f.files {
		n += int64(len(ino.data))
	}
	return n
}

// Resident is the memory the files hold: the capacity of every file's
// buffer, spare capacity included.
func (f *FS) Resident() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, ino := range f.files {
		n += int64(cap(ino.data))
	}
	return n
}

// MkdirAll implements etl.FS.
func (f *FS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for d := clean(dir); !f.dirs[d]; d = path.Dir(d) {
		f.dirs[d] = true
	}
	return nil
}

// ReadDir implements etl.FS: the sorted names of dir's files and
// subdirectories.
func (f *FS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = clean(dir)
	if !f.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	seen := map[string]bool{}
	add := func(p string) {
		if path.Dir(p) == dir && p != dir {
			seen[path.Base(p)] = true
		}
	}
	for p := range f.files {
		add(p)
	}
	for p := range f.dirs {
		add(p)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements etl.FS.
func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.files[clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), ino.data...), nil
}

func (f *FS) open(name string, truncate bool) (etl.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = clean(name)
	if !f.dirs[path.Dir(name)] {
		return nil, notExist("open", name)
	}
	ino, ok := f.files[name]
	if !ok {
		ino = &inode{}
		f.files[name] = ino
	}
	if truncate {
		ino.data = nil
	}
	return &file{fs: f, ino: ino}, nil
}

// Create implements etl.FS.
func (f *FS) Create(name string) (etl.File, error) { return f.open(name, true) }

// Append implements etl.FS.
func (f *FS) Append(name string) (etl.File, error) { return f.open(name, false) }

// Rename implements etl.FS.
func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldname, newname = clean(oldname), clean(newname)
	ino, ok := f.files[oldname]
	if !ok {
		return notExist("rename", oldname)
	}
	delete(f.files, oldname)
	f.files[newname] = ino
	return nil
}

// Remove implements etl.FS.
func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = clean(name)
	if _, ok := f.files[name]; ok {
		delete(f.files, name)
		return nil
	}
	if f.dirs[name] {
		prefix := name + "/"
		for p := range f.files {
			if strings.HasPrefix(p, prefix) {
				return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrExist}
			}
		}
		delete(f.dirs, name)
		return nil
	}
	return notExist("remove", name)
}

// file appends to one inode.
type file struct {
	fs  *FS
	ino *inode
}

func (h *file) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.ino.data = append(h.ino.data, p...)
	return len(p), nil
}

func (h *file) Sync() error  { return nil }
func (h *file) Close() error { return nil }
