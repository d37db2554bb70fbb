// Package store is the persistent layer of the service's result
// cache: a disk-backed, crash-safe store of simulation results keyed by
// the scheduler's content-addressed SHA-256 job keys. It sits *under*
// the in-memory LRU (internal/sched.Cache) — a memory miss falls
// through to disk, a completed job is written through to disk — so
// results survive process restarts and a redeployed server starts with
// a warm cache instead of re-simulating its whole working set.
//
// Layout (everything under one root directory):
//
//	objects/<hh>/<64-hex>   one entry per key, sharded by the first
//	                        key byte; header + checksum + payload
//	index.log               append-only recency log (fsync'd on put),
//	                        compacted on every Open
//	quarantine/<64-hex>.<n> corrupt entries moved aside on read
//	tmp/                    staging area for atomic writes
//
// Crash safety is the tmp+rename discipline: an entry is staged in
// tmp/, fsync'd, then renamed into objects/ (atomic on POSIX), and the
// index append is fsync'd after the rename. A crash can therefore lose
// at most the entry being written — never corrupt an existing one —
// and an entry that reached objects/ but not the index is adopted by
// the directory reconciliation on the next Open. Entries carry a
// payload checksum; a corrupt file (torn write, bit rot) is moved to
// quarantine/ on read and reported as a miss, never served.
//
// The store is safe for concurrent use. All errors are absorbed into
// counters (Stats) rather than returned from the hot Get/Put paths: a
// sick disk degrades the service to re-simulation, it does not take
// the service down.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Key is a content address: the scheduler's SHA-256 job key. The store
// never interprets it beyond hex-encoding it into a file name.
type Key = [sha256.Size]byte

// magic heads every entry file; bumping it invalidates (quarantines)
// entries written by incompatible versions.
const magic = "RUUSTOR1"

// headerSize is the fixed entry-file prefix: magic, payload length,
// payload SHA-256.
const headerSize = len(magic) + 8 + sha256.Size

// DefaultMaxBytes bounds the resident payload bytes when Options
// leaves MaxBytes zero (1 GiB — roughly two million cached sweep
// outcomes).
const DefaultMaxBytes = 1 << 30

// Options parameterises Open.
type Options struct {
	// MaxBytes bounds resident payload bytes; the least recently used
	// entries are evicted beyond it. Zero means DefaultMaxBytes;
	// negative disables the bound.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Entries and Bytes describe the resident set; Capacity the
	// configured byte bound (0 = unbounded).
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Capacity int64 `json:"capacity"`
	// Hits and Misses count Get outcomes; Evictions entries displaced
	// by the byte bound; Quarantined corrupt entries moved aside;
	// BytesWritten cumulative payload bytes accepted by Put.
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	Quarantined  int64 `json:"quarantined"`
	BytesWritten int64 `json:"bytes_written"`
	// ReadErrors and WriteErrors count I/O failures absorbed by Get
	// and Put (each such Get is also a miss; each such Put is a no-op).
	ReadErrors  int64 `json:"read_errors"`
	WriteErrors int64 `json:"write_errors"`
}

// Store is a disk-backed result store. Create with Open; Close releases
// the index file (entries need no shutdown step — every Put is durable
// the moment it returns). All state lives in the core, accessed only
// under the mutex; file I/O happens under it too, which keeps the index
// log ordered and is far from the bottleneck next to the simulations
// being cached.
type Store struct {
	mu   sync.Mutex
	core storeCore // guardedby: mu
}

// storeCore is the store's single-threaded implementation; Store's
// exported methods serialize access to it.
type storeCore struct {
	dir      string
	maxBytes int64

	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	index   *os.File // append-only recency log, fsync'd on put
	closed  bool

	stats Stats
}

// entry is one resident object in LRU order.
type entry struct {
	key  Key
	size int64
}

// Open opens (creating if needed) the store rooted at dir, replays and
// compacts the index log, reconciles it against the objects on disk,
// clears stale tmp files, and enforces the byte bound.
func Open(dir string, opts Options) (*Store, error) {
	maxBytes := opts.MaxBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	if maxBytes < 0 {
		maxBytes = 0 // unbounded
	}
	for _, sub := range []string{"objects", "quarantine", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: create %s: %w", sub, err)
		}
	}
	s := &Store{core: storeCore{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
	}}
	if err := s.core.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Get returns the payload stored under k. A corrupt entry is moved to
// quarantine/ and reported as a miss; an I/O failure is counted and
// reported as a miss.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.get(k)
}

// Put stores payload under k durably: staged in tmp/, fsync'd, renamed
// into objects/, index record fsync'd. Failures are counted and leave
// the store unchanged. Re-putting a resident key refreshes recency
// only.
func (s *Store) Put(k Key, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.core.put(k, payload)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.core.stats
	st.Entries = len(s.core.entries)
	st.Bytes = s.core.bytes
	st.Capacity = s.core.maxBytes
	return st
}

// Close releases the index file. Entries are durable already; a closed
// store answers every Get with a miss and drops every Put.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.close()
}

// recover rebuilds the in-memory index: replay the log for recency
// order, adopt on-disk objects the log missed (crash between rename
// and append), drop log entries whose files vanished, sweep tmp/, and
// rewrite the log compacted.
func (c *storeCore) recover() error {
	order := c.replayLog()

	// The ground truth is the objects directory: walk it and stat every
	// entry file. Names are hex keys; anything else is ignored.
	onDisk := map[Key]int64{}
	shards, _ := os.ReadDir(filepath.Join(c.dir, "objects"))
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(c.dir, "objects", shard.Name()))
		for _, f := range files {
			k, ok := parseKeyName(f.Name())
			if !ok {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			size := info.Size() - int64(headerSize)
			if size < 0 {
				size = 0
			}
			onDisk[k] = size
		}
	}

	// Resident set = log order filtered to files that exist, plus
	// adopted strays in sorted-name order (deterministic), coldest.
	for _, k := range order {
		size, ok := onDisk[k]
		if !ok {
			continue
		}
		if e, dup := c.entries[k]; dup {
			// Later log records win: refresh recency.
			c.lru.MoveToFront(e)
			continue
		}
		c.entries[k] = c.lru.PushFront(&entry{key: k, size: size})
		c.bytes += size
	}
	for _, k := range sortedKeys(onDisk) {
		if _, ok := c.entries[k]; !ok {
			c.entries[k] = c.lru.PushBack(&entry{key: k, size: onDisk[k]})
			c.bytes += onDisk[k]
		}
	}

	// Stale staging files are leftovers of interrupted writes.
	if tmps, err := os.ReadDir(filepath.Join(c.dir, "tmp")); err == nil {
		for _, f := range tmps {
			_ = os.Remove(filepath.Join(c.dir, "tmp", f.Name()))
		}
	}

	c.evictOver()

	// Rewrite the log compacted (cold to hot, so replay rebuilds the
	// same order), tmp+rename like any other durable write.
	if err := c.rewriteLog(); err != nil {
		return err
	}
	f, err := os.OpenFile(c.indexPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open index: %w", err)
	}
	c.index = f
	return nil
}

// replayLog reads index.log and returns referenced keys in order (the
// caller deduplicates via the LRU map, so repeats refresh recency). A
// missing or unreadable log is an empty history, not an error — the
// directory scan recovers state.
func (c *storeCore) replayLog() []Key {
	data, err := os.ReadFile(c.indexPath())
	if err != nil {
		return nil
	}
	var order []Key
	for _, line := range strings.Split(string(data), "\n") {
		if len(line) < 2 {
			continue
		}
		op, rest := line[0], line[2:]
		k, ok := parseKeyName(rest)
		if !ok {
			continue
		}
		switch op {
		case 'P', 'G':
			order = append(order, k)
		case 'D':
			// Deletion: drop every earlier reference.
			kept := order[:0]
			for _, o := range order {
				if o != k {
					kept = append(kept, o)
				}
			}
			order = kept
		}
	}
	// Replay pushes to the LRU front in order, so hottest must come
	// last; reverse the first-use order into cold-to-hot.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// rewriteLog writes the compacted index (one P record per resident
// entry, hot to cold — replay reverses it) via tmp+rename and fsyncs
// both file and directory.
func (c *storeCore) rewriteLog() error {
	var b strings.Builder
	for e := c.lru.Front(); e != nil; e = e.Next() {
		fmt.Fprintf(&b, "P %x\n", e.Value.(*entry).key)
	}
	tmp := filepath.Join(c.dir, "tmp", "index.log.tmp")
	if err := writeFileSync(tmp, []byte(b.String())); err != nil {
		return fmt.Errorf("store: write index: %w", err)
	}
	if err := os.Rename(tmp, c.indexPath()); err != nil {
		return fmt.Errorf("store: install index: %w", err)
	}
	return syncDir(c.dir)
}

func (c *storeCore) indexPath() string { return filepath.Join(c.dir, "index.log") }

func (c *storeCore) objectPath(k Key) string {
	name := hex.EncodeToString(k[:])
	return filepath.Join(c.dir, "objects", name[:2], name)
}

func (c *storeCore) get(k Key) ([]byte, bool) {
	e, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	data, err := os.ReadFile(c.objectPath(k))
	if err != nil {
		// The index says present but the file is unreadable: drop the
		// entry so we stop probing it.
		c.stats.ReadErrors++
		c.drop(e, false)
		c.stats.Misses++
		return nil, false
	}
	payload, ok := decodeEntry(data)
	if !ok {
		c.quarantine(e)
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(e)
	c.appendLog("G %x\n", k, false)
	return payload, true
}

func (c *storeCore) put(k Key, payload []byte) {
	if c.closed {
		return
	}
	if e, ok := c.entries[k]; ok {
		// Content-addressed: an existing entry already holds this exact
		// payload.
		c.lru.MoveToFront(e)
		return
	}
	name := hex.EncodeToString(k[:])
	tmp := filepath.Join(c.dir, "tmp", name+".tmp")
	if err := writeFileSync(tmp, encodeEntry(payload)); err != nil {
		c.stats.WriteErrors++
		return
	}
	dst := c.objectPath(k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		c.stats.WriteErrors++
		_ = os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, dst); err != nil {
		c.stats.WriteErrors++
		_ = os.Remove(tmp)
		return
	}
	if err := syncDir(filepath.Dir(dst)); err != nil {
		c.stats.WriteErrors++
	}
	size := int64(len(payload))
	c.entries[k] = c.lru.PushFront(&entry{key: k, size: size})
	c.bytes += size
	c.stats.BytesWritten += size
	c.appendLog("P %x\n", k, true)
	c.evictOver()
}

// evictOver enforces the byte bound by dropping least recently used
// entries (never the sole resident one, so a single oversized entry
// still serves).
func (c *storeCore) evictOver() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.drop(oldest, true)
		c.stats.Evictions++
	}
}

// drop removes an entry from the resident set and disk; logDelete
// records a D line so a replay forgets it too.
func (c *storeCore) drop(e *list.Element, logDelete bool) {
	ent := e.Value.(*entry)
	c.lru.Remove(e)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
	_ = os.Remove(c.objectPath(ent.key))
	if logDelete {
		c.appendLog("D %x\n", ent.key, false)
	}
}

// quarantine moves a corrupt entry aside (objects/ -> quarantine/ with
// a uniqueness suffix) and removes it from the resident set.
func (c *storeCore) quarantine(e *list.Element) {
	ent := e.Value.(*entry)
	name := hex.EncodeToString(ent.key[:])
	src := c.objectPath(ent.key)
	for n := 0; ; n++ {
		dst := filepath.Join(c.dir, "quarantine", fmt.Sprintf("%s.%d", name, n))
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := os.Rename(src, dst); err != nil {
			_ = os.Remove(src)
		}
		break
	}
	c.lru.Remove(e)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
	c.stats.Quarantined++
	c.appendLog("D %x\n", ent.key, false)
}

// appendLog appends one index record; only put records are fsync'd
// (recency refreshes are advisory — losing them costs cache ordering,
// never correctness).
func (c *storeCore) appendLog(format string, k Key, syncIt bool) {
	if c.index == nil {
		return
	}
	if _, err := fmt.Fprintf(c.index, format, k); err != nil {
		c.stats.WriteErrors++
		return
	}
	if syncIt {
		if err := c.index.Sync(); err != nil {
			c.stats.WriteErrors++
		}
	}
}

func (c *storeCore) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.entries = make(map[Key]*list.Element)
	c.lru.Init()
	c.bytes = 0
	if c.index != nil {
		err := c.index.Close()
		c.index = nil
		return err
	}
	return nil
}

// encodeEntry frames a payload: magic, length, checksum, bytes.
func encodeEntry(payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload))
	buf = append(buf, magic...)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(payload)))
	buf = append(buf, n[:]...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

// decodeEntry validates an entry file and returns its payload.
func decodeEntry(data []byte) ([]byte, bool) {
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[len(magic) : len(magic)+8])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	var sum Key
	copy(sum[:], data[len(magic)+8:headerSize])
	if sha256.Sum256(payload) != sum {
		return nil, false
	}
	return payload, true
}

// parseKeyName decodes a 64-hex-char file name into a Key.
func parseKeyName(name string) (Key, bool) {
	var k Key
	if len(name) != 2*sha256.Size {
		return k, false
	}
	b, err := hex.DecodeString(name)
	if err != nil {
		return k, false
	}
	copy(k[:], b)
	return k, true
}

// sortedKeys returns map keys in lexicographic order (deterministic
// adoption order for unindexed files).
func sortedKeys(m map[Key]int64) []Key {
	out := make([]Key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i][:]) < string(out[j][:])
	})
	return out
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
