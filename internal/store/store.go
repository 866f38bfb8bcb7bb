// Package store is the crash-safe persistent verdict store behind
// mbaserved's in-memory LRU. It persists the facts the service has
// paid to learn — equivalence verdicts, simplifications, classify
// sample blocks — so a restarted node answers its shard's corpus from
// disk instead of re-solving it (the ~300-400x cold-to-warm gap
// BENCH_cluster.json measures).
//
// The design is a single-writer append-only log plus an in-memory
// index:
//
//   - Records are framed as [u32 body length | u32 CRC32-C of body |
//     body], body = [u32 key length | key | value]. The frame is the
//     unit of recovery: a torn or bit-flipped record fails its CRC (or
//     its length sanity bounds) and recovery truncates the log at the
//     first bad frame — everything before it is intact by checksum,
//     everything after it is unreachable anyway in an append-only log
//     written by one goroutine.
//   - Put updates the in-memory index immediately and hands the record
//     to the writer goroutine through a bounded queue; the request path
//     never blocks on disk. The writer batches appends and fsyncs on a
//     group-commit ticker, so durability lags a Put by at most
//     SyncInterval plus one disk flush.
//   - Open never refuses to start: any corruption — bad magic, torn
//     tail, flipped bits, injected read faults — degrades to a shorter
//     (possibly empty) log, counted in the Recovered/Truncated
//     counters, never to an error a caller could turn into a crash
//     loop.
//   - Repeated write or fsync failures poison the store: it stops
//     touching the disk and keeps serving Gets from memory, so a dying
//     disk degrades the node to memory-only caching instead of failing
//     requests.
//
// The store persists only definitive results. Callers enforce the
// module's never-persist invariants at the Put call site — timeouts
// and Unknown verdicts are budget artifacts, fault-injected runs are
// simulations, truncated classify sample blocks are partial answers;
// none of them may outlive the process. mbalint's reasoncheck analyzer
// machine-checks that every Put sits under a timeout/fault guard.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mbasolver/internal/fault"
)

// Fault-injection sites (no-ops unless a chaos plan arms them). The
// write sites model the three ways a real disk lies: store.write fails
// the append outright, store.write.short tears the frame (a prefix
// reaches the disk, then the "process dies"), and store.write.flip
// corrupts a byte silently — the write succeeds and the damage is only
// discoverable by CRC at the next recovery. store.fsync fails the
// group commit (durability lost, poisoning pressure); store.recover
// flips a bit in a frame as the recovery scan reads it, exercising the
// truncate-at-first-corruption path.
var (
	siteWrite      = fault.NewSite("store.write")
	siteWriteShort = fault.NewSite("store.write.short")
	siteWriteFlip  = fault.NewSite("store.write.flip")
	siteFsync      = fault.NewSite("store.fsync")
	siteRecover    = fault.NewSite("store.recover")
)

// magic is the 8-byte log header. The trailing digit versions the
// record encoding; bumping it makes old logs recover as empty instead
// of misparsing.
const magic = "MBAVERD1"

// logName is the log file's name inside the store directory.
const logName = "verdicts.log"

// frameHeaderLen is the per-record frame header: u32 body length +
// u32 CRC32-C.
const frameHeaderLen = 8

// castagnoli is the CRC32-C table (the polynomial with hardware
// support on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPending bounds the Put queue. A full queue drops the write — the
// entry stays served from memory — rather than stalling the request
// path on a slow disk.
const maxPending = 1024

// Options tunes a Store. The zero value takes the defaults.
type Options struct {
	// SyncInterval is the group-commit period: appended records are
	// fsynced together at this cadence (default 25ms). Shorter bounds
	// the durability window, longer amortizes the flush.
	SyncInterval time.Duration
	// PoisonThreshold is the consecutive write/fsync failure count that
	// poisons the store into memory-only mode (default 3).
	PoisonThreshold int
	// MaxRecordBytes bounds one record's body (default 1MiB). Larger
	// Puts are dropped; a larger length read during recovery is treated
	// as corruption.
	MaxRecordBytes int
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 25 * time.Millisecond
	}
	if o.PoisonThreshold <= 0 {
		o.PoisonThreshold = 3
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 1 << 20
	}
	return o
}

// record is one pending append.
type record struct {
	key string
	val []byte
}

// Store is a digest-keyed persistent verdict store. Get is safe for
// concurrent use by every service worker; Put is safe for concurrent
// use and never blocks on disk. A Store must not be copied after Open.
type Store struct {
	opts Options
	path string

	mu    sync.RWMutex // guards index
	index map[string][]byte

	f       *os.File
	off     int64 // end of the last durable-format-intact frame
	pending chan record
	stopc   chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool

	// poisoned flips once PoisonThreshold consecutive disk failures
	// accumulate; from then on the store is memory-only.
	poisoned    atomic.Bool
	consecFails int // writer goroutine only

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	dropped     atomic.Int64
	writeErrors atomic.Int64
	syncErrors  atomic.Int64
	syncs       atomic.Int64
	recovered   atomic.Int64
	truncated   atomic.Int64
	truncBytes  atomic.Int64
}

// Snapshot is the store's observability surface, exported on
// /debug/metrics as the "store" section.
type Snapshot struct {
	Path    string `json:"path"`
	Entries int    `json:"entries"`
	// Hits and Misses count second-level lookups (the LRU missed).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts accepted writes; Dropped counts writes refused by the
	// full queue, the record-size cap, or a poisoned store.
	Puts    int64 `json:"puts"`
	Dropped int64 `json:"dropped"`
	// WriteErrors and SyncErrors count injected or real disk failures;
	// Syncs counts successful group commits.
	WriteErrors int64 `json:"write_errors"`
	SyncErrors  int64 `json:"sync_errors"`
	Syncs       int64 `json:"syncs"`
	// Recovered is the number of records restored by the recovery scan
	// at Open; Truncated counts tail truncation events (0 or 1 per
	// Open) and TruncatedBytes the bytes cut.
	Recovered      int64 `json:"recovered"`
	Truncated      int64 `json:"truncated"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Poisoned reports the store gave up on the disk and now serves
	// from memory only.
	Poisoned bool    `json:"poisoned"`
	HitRate  float64 `json:"hit_rate"`
}

// Open opens (or creates) the store in dir and replays its log. It
// never fails on a corrupt log: the recovery scan keeps every record
// up to the first torn or checksum-failing frame and truncates the
// rest, counting what it did in the snapshot's Recovered/Truncated
// fields. Only genuine environment errors (unwritable directory)
// return an error.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s := &Store{
		opts:    opts,
		path:    path,
		index:   make(map[string][]byte),
		f:       f,
		pending: make(chan record, maxPending),
		stopc:   make(chan struct{}),
	}
	if err := s.recoverLog(); err != nil {
		// Recovery swallows corruption; an error here is environmental
		// (seek/truncate refused) and the disk cannot be trusted.
		f.Close()
		return nil, fmt.Errorf("store: recover: %w", err)
	}
	s.wg.Add(1)
	go s.writeLoop()
	return s, nil
}

// recoverLog replays the log into the index, truncating at the first
// corrupt or torn frame. An empty or unreadable log recovers as empty.
func (s *Store) recoverLog() error {
	size, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if size == 0 {
		if _, err := s.f.WriteAt([]byte(magic), 0); err != nil {
			return err
		}
		s.off = int64(len(magic))
		return s.f.Sync()
	}

	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, size), data); err != nil {
		return err
	}
	good := int64(0)
	if len(data) >= len(magic) && string(data[:len(magic)]) == magic {
		good = int64(len(magic))
		off := good
		for off+frameHeaderLen <= size {
			bodyLen := int64(binary.LittleEndian.Uint32(data[off:]))
			wantCRC := binary.LittleEndian.Uint32(data[off+4:])
			if bodyLen < 4 || bodyLen > int64(s.opts.MaxRecordBytes) || off+frameHeaderLen+bodyLen > size {
				break // torn tail or nonsense length
			}
			body := data[off+frameHeaderLen : off+frameHeaderLen+bodyLen]
			if siteRecover.Fire() && len(body) > 0 {
				// Injected disk rot: flip a bit in the frame as it is read.
				body[len(body)/2] ^= 0x10
			}
			if crc32.Checksum(body, castagnoli) != wantCRC {
				break // bit flip, torn write, or injected corruption
			}
			keyLen := int64(binary.LittleEndian.Uint32(body))
			if keyLen < 0 || keyLen > bodyLen-4 {
				break
			}
			key := string(body[4 : 4+keyLen])
			val := make([]byte, bodyLen-4-keyLen)
			copy(val, body[4+keyLen:])
			s.index[key] = val // duplicate keys: last write wins
			s.recovered.Add(1)
			off += frameHeaderLen + bodyLen
		}
		good = off
	}
	// good == 0 means the header itself is corrupt: quarantine the whole
	// file and start a fresh log rather than refuse to boot.
	if good < int64(len(magic)) {
		if err := s.f.Truncate(0); err != nil {
			return err
		}
		if _, err := s.f.WriteAt([]byte(magic), 0); err != nil {
			return err
		}
		s.truncated.Add(1)
		s.truncBytes.Add(size)
		s.off = int64(len(magic))
		return s.f.Sync()
	}
	if good < size {
		if err := s.f.Truncate(good); err != nil {
			return err
		}
		s.truncated.Add(1)
		s.truncBytes.Add(size - good)
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.off = good
	return nil
}

// Get returns the stored value for key. The returned slice is shared
// and must be treated as immutable — the service layer only ever
// json.Unmarshals it.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	val, ok := s.index[key]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return val, ok
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Range calls fn for every entry until fn returns false. It holds the
// read lock for the duration, so fn must be cheap and must not call
// back into the store. Values are shared; treat them as immutable.
func (s *Store) Range(fn func(key string, val []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.index {
		//lint:ignore lockdiscipline fn is documented cheap and non-reentrant; snapshotting the index instead would copy every value
		if !fn(k, v) {
			return
		}
	}
}

// Put stores a value. The in-memory index is updated immediately (so
// a concurrent Get on another worker sees it) and the append is handed
// to the writer; a full queue, an oversized record, a poisoned store
// or a closed store drop the disk write — the entry then lives only as
// long as the process, which is the documented degradation.
//
// Callers own the never-persist invariants: do not Put timeouts,
// Unknown verdicts, fault-injected results or truncated sample blocks
// (reasoncheck enforces the guard at every call site).
func (s *Store) Put(key string, val []byte) {
	if s.closed.Load() {
		s.dropped.Add(1)
		return
	}
	if 4+len(key)+len(val) > s.opts.MaxRecordBytes {
		s.dropped.Add(1)
		return
	}
	s.puts.Add(1)
	s.mu.Lock()
	s.index[key] = val
	s.mu.Unlock()
	if s.poisoned.Load() {
		s.dropped.Add(1)
		return
	}
	select {
	case s.pending <- record{key: key, val: val}:
	default:
		s.dropped.Add(1)
	}
}

// Close flushes pending appends, fsyncs and closes the log. It is
// idempotent; Gets keep working after Close (the index stays), further
// Puts are dropped.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stopc)
	s.wg.Wait()
	return s.f.Close()
}

// Snapshot reports the store's counters.
func (s *Store) Snapshot() Snapshot {
	snap := Snapshot{
		Path:           s.path,
		Entries:        s.Len(),
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		Dropped:        s.dropped.Load(),
		WriteErrors:    s.writeErrors.Load(),
		SyncErrors:     s.syncErrors.Load(),
		Syncs:          s.syncs.Load(),
		Recovered:      s.recovered.Load(),
		Truncated:      s.truncated.Load(),
		TruncatedBytes: s.truncBytes.Load(),
		Poisoned:       s.poisoned.Load(),
	}
	if total := snap.Hits + snap.Misses; total > 0 {
		snap.HitRate = float64(snap.Hits) / float64(total)
	}
	return snap
}

// encodeRecord frames one record: [u32 body length | u32 CRC32-C of
// body | body], body = [u32 key length | key | value], all fields
// little-endian. The format is pinned by the golden-vector test.
func encodeRecord(key string, val []byte) []byte {
	body := make([]byte, 4+len(key)+len(val))
	binary.LittleEndian.PutUint32(body, uint32(len(key)))
	copy(body[4:], key)
	copy(body[4+len(key):], val)
	frame := make([]byte, frameHeaderLen+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	copy(frame[frameHeaderLen:], body)
	return frame
}

// errInjected marks simulated disk failures raised by the write sites.
var errInjected = errors.New("store: injected disk fault")

// writeLoop is the single writer: it appends queued records and
// fsyncs them together on the group-commit ticker. It exits when the
// stop channel closes, after draining the queue and a final sync.
func (s *Store) writeLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.SyncInterval)
	defer ticker.Stop()
	dirty := false
	for {
		select {
		case r := <-s.pending:
			if s.appendRecord(r) {
				dirty = true
			}
		case <-ticker.C:
			if dirty {
				s.groupCommit()
				dirty = false
			}
		case <-s.stopc:
			for {
				select {
				case r := <-s.pending:
					if s.appendRecord(r) {
						dirty = true
					}
				default:
					if dirty {
						s.groupCommit()
					}
					return
				}
			}
		}
	}
}

// appendRecord writes one frame at the current end of log, reporting
// whether anything new reached the file. A failed or torn append is
// repaired by truncating back to the last intact frame; failures count
// toward poisoning.
func (s *Store) appendRecord(r record) bool {
	if s.poisoned.Load() {
		return false
	}
	frame := encodeRecord(r.key, r.val)
	if siteWriteFlip.Fire() {
		// Silent corruption: damage the body so the CRC cannot match,
		// then write "successfully". Only the next recovery scan can
		// notice; until then the record is served from memory.
		frame[frameHeaderLen+(len(frame)-frameHeaderLen)/2] ^= 0x01
	}
	n, err := s.writeFrame(frame)
	if err != nil {
		s.writeErrors.Add(1)
		// Repair the tail: anything partially written is garbage. If the
		// truncate fails too the file offset can no longer be trusted, so
		// poison immediately — recovery will cut the torn tail next boot.
		if n > 0 {
			if terr := s.f.Truncate(s.off); terr != nil {
				s.poison()
				return false
			}
		}
		s.noteDiskFailure()
		return false
	}
	s.off += int64(len(frame))
	return true
}

// writeFrame performs the raw append, with the write-failure and
// short-write fault sites in line.
func (s *Store) writeFrame(frame []byte) (int, error) {
	if siteWrite.Fire() {
		return 0, errInjected
	}
	if siteWriteShort.Fire() {
		// Torn write: half the frame reaches the disk, then the failure.
		n, _ := s.f.WriteAt(frame[:len(frame)/2], s.off)
		return n, errInjected
	}
	return s.f.WriteAt(frame, s.off)
}

// groupCommit fsyncs the batch appended since the last commit.
func (s *Store) groupCommit() {
	if s.poisoned.Load() {
		return
	}
	if siteFsync.Fire() {
		s.syncErrors.Add(1)
		s.noteDiskFailure()
		return
	}
	if err := s.f.Sync(); err != nil {
		s.syncErrors.Add(1)
		s.noteDiskFailure()
		return
	}
	s.syncs.Add(1)
	s.consecFails = 0
}

// noteDiskFailure counts one write/fsync failure toward the poison
// threshold.
func (s *Store) noteDiskFailure() {
	s.consecFails++
	if s.consecFails >= s.opts.PoisonThreshold {
		s.poison()
	}
}

// poison flips the store into memory-only mode: the disk is not
// touched again, Gets keep serving the index, Puts update memory only.
func (s *Store) poison() {
	s.poisoned.Store(true)
}
