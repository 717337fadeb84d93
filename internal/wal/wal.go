// Package wal implements the append-only write-ahead log that backs
// the serving layer's patient registry. The format follows the same
// length-prefixed, checksummed discipline as internal/snapshot: a
// fixed magic + version header, then a sequence of records, each
// framed as
//
//	uint32 payload length (little-endian)
//	uint32 CRC32-IEEE over (length bytes || record version || payload)
//	uint64 record version (little-endian)
//	payload bytes
//
// The record version is the replication-layer LWW version of the
// registry record the payload mutates; it rides in the frame (rather
// than the payload) so replay hands the registry the exact version
// each record was acknowledged with, and per-record versions survive
// crashes the same way the payload does.
//
// Each Append writes its frame with a single write(2), so a crash
// mid-append leaves a strict prefix of the frame on disk. Open
// distinguishes the two failure shapes that follow from that:
//
//   - A frame that runs past end-of-file (partial header or partial
//     payload) is a torn tail — the expected residue of a crash. The
//     file is silently truncated back to the last complete record and
//     the log stays writable.
//   - A complete frame whose checksum does not match is interior
//     corruption — bytes that were fully written and later damaged.
//     Open refuses the log with an error naming the offset; replaying
//     past silent damage would serve wrong clinical state.
//
// Durability is tunable per deployment: SyncAlways fsyncs every
// append (an acknowledged write survives machine power loss),
// SyncInterval fsyncs dirty data on a timer (bounded loss on power
// failure, none on process crash — appends reach the OS page cache
// immediately), SyncOff leaves flushing entirely to the OS.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dssddi/internal/obs"
)

const (
	// Magic identifies a registry WAL file.
	Magic = "dssddi-wal\x00"
	// Version is bumped on incompatible format changes. Version 2
	// added the per-record uint64 version to the frame.
	Version = 2
	// maxRecord bounds a single record payload (64 MiB). A length
	// prefix beyond it cannot come from a torn write of a valid
	// record, so it is classified as corruption, which also catches
	// bit flips in the high bytes of a length field.
	maxRecord = 1 << 26

	headerSize = len(Magic) + 4
	frameSize  = 16 // length + crc + record version
)

// SyncPolicy controls when appended records are fsynced.
type SyncPolicy int

const (
	// SyncInterval flushes dirty data on a background timer.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs inside every Append before it returns.
	SyncAlways
	// SyncOff never fsyncs explicitly; the OS flushes when it likes.
	SyncOff
)

// ParseSyncPolicy maps the flag spellings ("always", "interval",
// "off") onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return "interval"
}

// Options configures Open.
type Options struct {
	Sync SyncPolicy
	// Interval is the flush cadence under SyncInterval (default 100ms).
	Interval time.Duration
}

// Log is an open write-ahead log positioned for appends. All methods
// are safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	opts   Options
	dirty  bool
	closed bool

	stop chan struct{}
	done chan struct{}

	records  atomic.Int64 // records in the log (replayed + appended)
	bytes    atomic.Int64 // payload bytes in the log
	syncs    atomic.Int64 // explicit fsyncs issued
	replayed int64        // records replayed by Open
	torn     int64        // trailing bytes truncated by Open

	// appendLat is the append-to-ack latency distribution (write(2)
	// plus, under SyncAlways, the fsync). Registry writes acknowledge
	// only after Append returns, so this histogram is the durability
	// cost every PUT/PATCH/DELETE pays.
	appendLat obs.Histogram
}

var errClosed = errors.New("wal: log is closed")

// CorruptError reports interior damage found while replaying a log.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s: corrupt record at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Open opens (creating if needed) the log at path, replays every
// intact record through replay in append order (handing each its
// stored record version), truncates a torn tail left by a crash, and
// returns the log positioned for appends. A complete record with a
// bad checksum, or a malformed header, aborts with a *CorruptError:
// interior damage must not be served.
func Open(path string, opts Options, replay func(version uint64, payload []byte) error) (*Log, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f, path: path, opts: opts}
	if err := l.recover(replay); err != nil {
		f.Close()
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// recover validates the header (writing one into an empty file),
// replays records, truncates a torn tail and seeks to the end.
func (l *Log) recover(replay func(uint64, []byte) error) error {
	st, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat %s: %w", l.path, err)
	}
	if st.Size() == 0 {
		hdr := make([]byte, 0, headerSize)
		hdr = append(hdr, Magic...)
		hdr = appendUint32(hdr, Version)
		if _, err := l.f.Write(hdr); err != nil {
			return fmt.Errorf("wal: write header: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync header: %w", err)
		}
		return nil
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(l.f, hdr); err != nil {
		return &CorruptError{Path: l.path, Offset: 0, Reason: "short header"}
	}
	if string(hdr[:len(Magic)]) != Magic {
		return &CorruptError{Path: l.path, Offset: 0, Reason: "bad magic"}
	}
	if v := readUint32(hdr[len(Magic):]); v != Version {
		return fmt.Errorf("wal: %s: unsupported version %d (have %d)", l.path, v, Version)
	}

	offset := int64(headerSize) // start of the next unread frame
	frame := make([]byte, frameSize)
	var payload []byte
	for {
		n, err := io.ReadFull(l.f, frame)
		if err == io.EOF && n == 0 {
			break // clean end
		}
		if err != nil {
			// Partial frame header: torn tail.
			l.torn = st.Size() - offset
			break
		}
		length := readUint32(frame[:4])
		want := readUint32(frame[4:8])
		version := readUint64(frame[8:])
		if length > maxRecord {
			return &CorruptError{Path: l.path, Offset: offset, Reason: fmt.Sprintf("record length %d exceeds limit", length)}
		}
		if int64(len(payload)) < int64(length) {
			payload = make([]byte, length)
		}
		body := payload[:length]
		if _, err := io.ReadFull(l.f, body); err != nil {
			// Frame header complete, payload missing: torn tail.
			l.torn = st.Size() - offset
			break
		}
		crc := crc32.NewIEEE()
		crc.Write(frame[:4])
		crc.Write(frame[8:])
		crc.Write(body)
		if crc.Sum32() != want {
			// The whole frame is on disk, so this is not a torn
			// write — the bytes were damaged after the fact.
			return &CorruptError{Path: l.path, Offset: offset, Reason: "checksum mismatch"}
		}
		if replay != nil {
			if err := replay(version, body); err != nil {
				return fmt.Errorf("wal: %s: replay record at offset %d: %w", l.path, offset, err)
			}
		}
		offset += frameSize + int64(length)
		l.records.Add(1)
		l.bytes.Add(int64(length))
		l.replayed++
	}
	if l.torn > 0 {
		if err := l.f.Truncate(offset); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if _, err := l.f.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	return nil
}

// Append durably (per the sync policy) adds one record stamped with
// its registry record version. The frame is written with a single
// write so a crash can only leave a torn tail, never a half-framed
// interior.
func (l *Log) Append(version uint64, payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds %d limit", len(payload), maxRecord)
	}
	t0 := time.Now()
	defer func() { l.appendLat.Observe(time.Since(t0)) }()
	frame := make([]byte, 0, frameSize+len(payload))
	frame = appendUint32(frame, uint32(len(payload)))
	var ver [8]byte
	putUint64(ver[:], version)
	crc := crc32.NewIEEE()
	crc.Write(frame[:4])
	crc.Write(ver[:])
	crc.Write(payload)
	frame = appendUint32(frame, crc.Sum32())
	frame = append(frame, ver[:]...)
	frame = append(frame, payload...)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.records.Add(1)
	l.bytes.Add(int64(len(payload)))
	if l.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.syncs.Add(1)
	} else {
		l.dirty = true
	}
	return nil
}

// Sync flushes any unsynced appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed {
		return errClosed
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.dirty = false
	l.syncs.Add(1)
	return nil
}

// Reset discards every record, leaving only the header — called after
// the registry state has been captured in a checkpoint file.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if err := l.f.Truncate(int64(headerSize)); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := l.f.Seek(int64(headerSize), io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset sync: %w", err)
	}
	l.dirty = false
	l.records.Store(0)
	l.bytes.Store(0)
	return nil
}

// Close fsyncs outstanding appends and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.dirty {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	return err
}

func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				if l.f.Sync() == nil {
					l.dirty = false
					l.syncs.Add(1)
				}
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// Path returns the file backing the log.
func (l *Log) Path() string { return l.path }

// SyncPolicy reports the fsync policy the log runs under.
func (l *Log) SyncPolicy() SyncPolicy { return l.opts.Sync }

// Records reports the number of records currently in the log.
func (l *Log) Records() int64 { return l.records.Load() }

// Bytes reports the payload bytes currently in the log.
func (l *Log) Bytes() int64 { return l.bytes.Load() }

// Syncs reports how many explicit fsyncs the log has issued.
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// Replayed reports how many records Open replayed.
func (l *Log) Replayed() int64 { return l.replayed }

// TornBytes reports how many trailing bytes Open truncated as a torn
// tail (zero after a clean shutdown).
func (l *Log) TornBytes() int64 { return l.torn }

// AppendLatency snapshots the append-to-ack latency distribution.
func (l *Log) AppendLatency() obs.HistogramSnapshot { return l.appendLat.Snapshot() }

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func readUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
