package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance names the host and the code a result was measured on.
// The repo's older BENCH_*.json records ran at GOMAXPROCS=1; they are
// no baseline for a result measured at another GOMAXPROCS.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// StoreFS is where ingest's durable stores live; explore's
	// explorer runs its default in-memory store.
	StoreFS   string `json:"store_fs"`
	Seed      uint64 `json:"seed"`
	WorldSeed uint64 `json:"world_seed"`
	Commit    string `json:"commit"`
	Tree      string `json:"tree_sha256"`
	Note      string `json:"note"`
}

func newProvenance(seed uint64) provenance {
	return provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		StoreFS:    "memfs (in-process RAM)",
		Seed:       seed,
		WorldSeed:  worldSeed,
		Commit:     gitCommit("."),
		Tree:       treeDigest("."),
		Note:       "BENCH_*.json records measured at GOMAXPROCS=1 are not a baseline for this result",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from a .git directory without running git; a
// checkout without one reports "unknown" and the tree digest stands
// in.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// treeDigest hashes the path and content of every Go source and
// go.mod file under root, skipping hidden directories (the build
// directory among them), so two checkouts of the same code agree.
func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(name)+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
