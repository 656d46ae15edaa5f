// Package wal implements the CRC-framed line protocol shared by every
// write-ahead journal in the repository (the migration engine's step journal
// and the autonomic controller's decision journal). A journal is a sequence
// of lines, each "%08x %s\n": the IEEE CRC32 of the record body followed by
// the body itself. A record is durable only once its newline is written, so
// a torn final line — the signature of a crash mid-write — is recoverable by
// truncation, while corruption anywhere else is detected by the checksum and
// surfaced as an error.
//
// The package deliberately knows nothing about record contents: bodies are
// opaque byte slices (in practice single-line JSON). Each journal layers its
// own record schema and state-machine validation on top.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

// FrameError pinpoints a malformed or corrupt frame. Journals wrap it in
// their own corruption sentinels.
type FrameError struct {
	Index  int    // zero-based index of the bad frame
	Reason string // what was wrong with it
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("wal: frame %d: %s", e.Index, e.Reason)
}

// Append writes one framed record to w. The body must be newline-free (a
// newline would terminate the frame early and corrupt the journal); embedded
// newlines are rejected rather than silently split. Any write error —
// including a short write, which leaves a torn line — is a crash from the
// journal owner's point of view.
func Append(w io.Writer, body []byte) error {
	if bytes.IndexByte(body, '\n') >= 0 {
		return fmt.Errorf("wal: record body contains a newline")
	}
	_, err := fmt.Fprintf(w, "%08x %s\n", crc32.ChecksumIEEE(body), body)
	return err
}

// Syncer is the optional durability surface of a journal sink. *os.File
// implements it; in-memory buffers and test fakes may or may not.
type Syncer interface {
	Sync() error
}

// Sync flushes w to stable storage if it is sync-capable, and is a no-op
// otherwise. Journal owners call it after appending a record whose
// durability the protocol depends on ("journal before transition"): without
// the fsync, a power loss can lose a record the OS had only buffered, even
// though the append call succeeded.
func Sync(w io.Writer) error {
	if s, ok := w.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Frames parses journal bytes into the sequence of record bodies. A torn
// final line (no trailing newline) is ignored; any other malformation —
// a bad checksum field, a checksum mismatch, a line too short to carry a
// frame — returns a *FrameError. It never panics, regardless of input.
//
// The returned bodies alias data; callers that mutate data must copy first.
func Frames(data []byte) ([][]byte, error) {
	var out [][]byte
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail
		}
		line := data[:nl]
		data = data[nl+1:]
		body, err := DecodeFrame(line, len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}

// DecodeFrame validates one newline-less frame line and returns its body.
// idx is the frame's position, used only for error reporting.
func DecodeFrame(line []byte, idx int) ([]byte, error) {
	corrupt := func(format string, args ...interface{}) ([]byte, error) {
		return nil, &FrameError{Index: idx, Reason: fmt.Sprintf(format, args...)}
	}
	if len(line) < 9 || line[8] != ' ' {
		return corrupt("malformed line %q", Truncate(line))
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return corrupt("bad checksum field %q", string(line[:8]))
	}
	body := line[9:]
	if got := crc32.ChecksumIEEE(body); got != uint32(sum) {
		return corrupt("checksum mismatch: have %08x, body sums to %08x", uint32(sum), got)
	}
	return body, nil
}

// TruncateTorn returns the journal prefix ending at the last newline — the
// durable records — discarding a torn final line left by a crash mid-write.
// Resuming callers truncate the journal file likewise before appending, so
// new records are never glued onto a torn line.
func TruncateTorn(data []byte) []byte {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return data[:i+1]
	}
	return nil
}

// OpenAppend opens the journal file at path for appending, creating it when
// absent, and returns its durable records. A torn final line left by a crash
// mid-write is cut from the file first, so appended records never follow it.
func OpenAppend(path string) ([]byte, *os.File, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	durable := TruncateTorn(data)
	if len(durable) < len(data) {
		if err := os.Truncate(path, int64(len(durable))); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return durable, f, nil
}

// Truncate renders a byte slice for error messages, bounding its length.
func Truncate(b []byte) string {
	const max = 40
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
