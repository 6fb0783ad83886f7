package fed

import (
	"errors"
	"sync"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// ErrKilled is the error a crashed node reports when it was killed
// deliberately — the chaos / MTTR hook (Cluster.Kill), not a fault of
// its own.
var ErrKilled = errors.New("fed: follower killed")

// errWedged marks a node the supervisor crashed because it was
// lagging with no progress across the watchdog window.
var errWedged = errors.New("fed: follower wedged")

// Source is the block feed a shard node tails: a blocking iterator
// over the upstream store's block sequence (NewStoreSource, possibly
// wrapped by Options.WrapSource). Next returns the first block
// with height beyond after, blocking until one exists; it returns
// false only after Close. Next is called from a single goroutine (the
// node's ingest loop); Close may race with it. BlockAt is a random
// read of one already-produced block — restarted nodes use it to
// re-derive per-block metadata without re-tailing — and must work
// even after Close.
type Source interface {
	Next(after int64) (*chain.Block, bool)
	BlockAt(height int64) *chain.Block
	Tip() int64
	Close()
}

// NewStoreSource tails an upstream etl.Store through its lossless
// Tail (Store.Follow): the feed every shard node runs on.
func NewStoreSource(up *etl.Store) Source {
	return &storeSource{up: up}
}

type storeSource struct {
	up *etl.Store

	mu     sync.Mutex
	tail   *etl.Tail // guarded by mu
	closed bool      // guarded by mu
}

func (s *storeSource) Next(after int64) (*chain.Block, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	if s.tail == nil {
		// Created on first use so the tail resumes exactly where the
		// node's store left off.
		s.tail = s.up.Follow(after)
	}
	t := s.tail
	s.mu.Unlock()
	return t.Next()
}

func (s *storeSource) BlockAt(height int64) *chain.Block { return s.up.BlockAt(height) }
func (s *storeSource) Tip() int64                        { return s.up.Height() }

func (s *storeSource) Close() {
	s.mu.Lock()
	s.closed = true
	t := s.tail
	s.mu.Unlock()
	if t != nil {
		t.Close()
	}
}

// Node is one shard: an etl.Store holding the partition slice it
// owns, fed by a goroutine tailing the source. Per the package
// invariant it appends a block for every upstream height — original
// header, owned transactions only — so its store tip always equals
// the height it has processed up to.
//
// A node is one incarnation of a shard. Durable shards outlive their
// nodes: when a node crashes, the supervisor builds a fresh Node over
// the same store directory, which resumes from its sealed segments
// and WAL tail and re-tails only the missed suffix.
type Node struct {
	id      ShardID
	part    Partition
	store   *etl.Store
	src     Source
	done    chan struct{}
	stop    chan struct{} // closed by Close/crash; interrupts retry backoff
	durable bool          // store came from etl.Open; graceful Close flushes it
	backoff *etl.Backoff

	srcOnce  sync.Once
	stopOnce sync.Once

	mu sync.RWMutex
	// seq maps a kept transaction to its index in the original
	// upstream block. Txn values are pointers shared with the source
	// blocks, so the interface key is identity, not content. This is
	// what lets a shard answer with upstream-true (height, seq)
	// coordinates even though its own blocks are filtered. The map is
	// memory-only: after a restart it is rebuilt lazily, one height at
	// a time, by re-filtering the source block (rebuildSeqLocked).
	seq map[chain.Txn]int32 // guarded by mu
	err error               // guarded by mu
}

// newNode starts one shard incarnation over the given store (nil
// means a fresh in-memory store).
func newNode(id ShardID, part Partition, src Source, store *etl.Store, durable bool) *Node {
	if store == nil {
		store = etl.New(etl.Config{})
	}
	n := &Node{
		id:      id,
		part:    part,
		store:   store,
		src:     src,
		done:    make(chan struct{}),
		stop:    make(chan struct{}),
		durable: durable,
		backoff: etl.NewBackoff(0, 0),
		seq:     make(map[chain.Txn]int32),
	}
	go n.run()
	return n
}

func (n *Node) run() {
	defer close(n.done)
	after := n.store.Height()
	for {
		b, ok := n.src.Next(after)
		if !ok {
			return
		}
		piece, seqs := n.filter(b)
		n.mu.Lock()
		for i, t := range piece.Txns {
			n.seq[t] = seqs[i]
		}
		n.mu.Unlock()
		if err := n.ingest(piece); err != nil {
			n.setErr(err)
			return
		}
		after = b.Height
	}
}

// ingest appends one block, retrying transient persistence faults
// with capped, jittered exponential backoff (mirroring etl.Follower).
// Close/crash interrupts the backoff; anything past the retry budget
// is permanent and kills the incarnation — the supervisor's problem.
func (n *Node) ingest(b *chain.Block) error {
	const maxRetries = 8
	for attempt := 0; ; attempt++ {
		err := n.store.Append(b)
		var pe *etl.PersistError
		if err == nil || !errors.As(err, &pe) || attempt >= maxRetries {
			return err
		}
		n.store.NoteIngestRetry()
		select {
		case <-n.stop:
			return err
		case <-time.After(n.backoff.Delay(attempt)):
		}
	}
}

// filter projects an upstream block onto this shard: the original
// header with only the owned transactions, plus their original
// intra-block indexes. Height-partitioned shards adopt or blank whole
// blocks without classifying a single transaction.
func (n *Node) filter(b *chain.Block) (*chain.Block, []int32) {
	if n.part.HeightOnly() {
		if n.part.Owns(b.Height, 0) != n.id {
			return n.header(b), nil
		}
		seqs := make([]int32, len(b.Txns))
		for i := range seqs {
			seqs[i] = int32(i)
		}
		return b, seqs
	}
	var txns []chain.Txn
	var seqs []int32
	for i, t := range b.Txns {
		if n.part.Owns(b.Height, RegionOf(t)) == n.id {
			txns = append(txns, t)
			seqs = append(seqs, int32(i))
		}
	}
	if len(txns) == 0 {
		return n.header(b), nil
	}
	h := n.header(b)
	h.Txns = txns
	return h, seqs
}

func (n *Node) header(b *chain.Block) *chain.Block {
	return &chain.Block{Height: b.Height, Timestamp: b.Timestamp, PrevHash: b.PrevHash, Hash: b.Hash}
}

// seqOf returns a kept transaction's index in its upstream block.
// Transactions ingested by this incarnation hit the map directly;
// ones inherited on disk from a previous incarnation miss (the map
// keys on pointer identity, and decoded blocks carry fresh pointers),
// so their whole height is rebuilt from the source on first touch.
func (n *Node) seqOf(height int64, t chain.Txn) int32 {
	n.mu.RLock()
	s, ok := n.seq[t]
	n.mu.RUnlock()
	if ok {
		return s
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.seq[t]; ok {
		return s
	}
	n.rebuildSeqLocked(height)
	return n.seq[t]
}

// rebuildSeqLocked recovers the seq entries for one height after a
// restart. The upstream block still exists at the source; filtering
// it again yields the owned transactions' original indexes in kept
// order, which maps one-to-one onto the stored block's transactions —
// filter is deterministic and Append preserved its order.
func (n *Node) rebuildSeqLocked(height int64) {
	up := n.src.BlockAt(height)
	sb := n.store.BlockAt(height)
	if up == nil || sb == nil {
		return
	}
	_, seqs := n.filter(up)
	if len(seqs) != len(sb.Txns) {
		return
	}
	for i, t := range sb.Txns {
		n.seq[t] = seqs[i]
	}
}

func (n *Node) setErr(err error) {
	n.mu.Lock()
	if n.err == nil {
		n.err = err
	}
	n.mu.Unlock()
}

// Err returns the first ingest error, if any.
func (n *Node) Err() error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.err
}

// Store exposes the node's underlying store (read-only use).
func (n *Node) Store() *etl.Store { return n.store }

// Close stops the ingest loop, waits for it to exit, and — for a
// durable node — flushes the store (sealed index sync, WAL close).
func (n *Node) Close() error {
	n.stopOnce.Do(func() { close(n.stop) })
	n.srcOnce.Do(n.src.Close)
	<-n.done
	if n.durable {
		if cerr := n.store.Close(); cerr != nil && n.Err() == nil {
			return cerr
		}
	}
	return n.Err()
}

// crash kills the incarnation with crash semantics: the error is
// recorded, the ingest loop is joined, and the store is NOT flushed —
// only what the WAL already fsynced survives, exactly what a process
// death leaves behind. The store directory stays reopenable.
func (n *Node) crash(err error) {
	n.setErr(err)
	n.stopOnce.Do(func() { close(n.stop) })
	n.srcOnce.Do(n.src.Close)
	<-n.done
}

// Info snapshots the node for operational surfaces. Lag is filled in
// by the cluster, which knows the source tip.
func (n *Node) Info() ShardInfo {
	st := n.store.Stats()
	info := ShardInfo{
		ID:     n.id,
		Slice:  n.part.Describe(n.id),
		Tip:    st.TipHeight,
		Blocks: st.Blocks,
		Txns:   st.Txns,
		Health: n.store.Health(),
	}
	if err := n.Err(); err != nil {
		info.Err = err.Error()
	}
	return info
}
