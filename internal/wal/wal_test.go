package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, w *bytes.Buffer, body string) {
	t.Helper()
	if err := Append(w, []byte(body)); err != nil {
		t.Fatalf("Append(%q): %v", body, err)
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := []string{`{"t":"plan"}`, `{"t":"state","step":0}`, ``, `plain text`}
	for _, b := range bodies {
		mustAppend(t, &buf, b)
	}
	frames, err := Frames(buf.Bytes())
	if err != nil {
		t.Fatalf("Frames: %v", err)
	}
	if len(frames) != len(bodies) {
		t.Fatalf("decoded %d frames, want %d", len(frames), len(bodies))
	}
	for i, b := range bodies {
		if string(frames[i]) != b {
			t.Errorf("frame %d = %q, want %q", i, frames[i], b)
		}
	}
}

func TestAppendRejectsNewline(t *testing.T) {
	var buf bytes.Buffer
	if err := Append(&buf, []byte("two\nlines")); err == nil {
		t.Fatal("Append accepted a body with an embedded newline")
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected append still wrote %d bytes", buf.Len())
	}
}

func TestTornTailIgnored(t *testing.T) {
	var buf bytes.Buffer
	mustAppend(t, &buf, "alpha")
	mustAppend(t, &buf, "beta")
	full := append([]byte(nil), buf.Bytes()...)
	// Tear the journal at every possible byte offset into the final line.
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	for cut := last; cut < len(full); cut++ {
		frames, err := Frames(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: Frames: %v", cut, err)
		}
		if len(frames) != 1 || string(frames[0]) != "alpha" {
			t.Fatalf("cut %d: frames = %q, want [alpha]", cut, frames)
		}
		trunc := TruncateTorn(full[:cut])
		if !bytes.Equal(trunc, full[:last]) {
			t.Fatalf("cut %d: TruncateTorn = %q, want %q", cut, trunc, full[:last])
		}
	}
}

func TestTruncateTornNoNewline(t *testing.T) {
	if got := TruncateTorn([]byte("no newline at all")); got != nil {
		t.Fatalf("TruncateTorn with no newline = %q, want nil", got)
	}
	if got := TruncateTorn(nil); got != nil {
		t.Fatalf("TruncateTorn(nil) = %q, want nil", got)
	}
}

// TestOpenAppend: a missing journal opens empty; a torn final line is cut
// from the file before anything is appended after the durable records.
func TestOpenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	durable, f, err := OpenAppend(path)
	if err != nil || len(durable) != 0 {
		t.Fatalf("OpenAppend on a missing file: %q, %v", durable, err)
	}
	var buf bytes.Buffer
	mustAppend(t, &buf, "alpha")
	if err := Append(f, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("1234abcd tor"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	durable, f, err = OpenAppend(path)
	if err != nil || !bytes.Equal(durable, buf.Bytes()) {
		t.Fatalf("OpenAppend = %q, %v; want %q", durable, err, buf.Bytes())
	}
	mustAppend(t, &buf, "beta")
	if err := Append(f, []byte("beta")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("file after append = %q, %v; want %q", got, err, buf.Bytes())
	}
}

func TestCorruptionDetected(t *testing.T) {
	body := []byte("payload")
	good := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body)
	cases := []struct {
		name string
		data string
	}{
		{"short line", "abc\n"},
		{"missing space", "0123456789\n"},
		{"bad checksum field", "zzzzzzzz payload\n"},
		{"checksum mismatch", "00000000 payload\n"},
		{"flipped body bit", good[:9] + "Payload\n"},
		{"corrupt middle frame", "short\n" + good},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Frames([]byte(tc.data))
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("Frames(%q) err = %v, want *FrameError", tc.data, err)
			}
		})
	}
}

func TestFrameErrorIndex(t *testing.T) {
	var buf bytes.Buffer
	mustAppend(t, &buf, "one")
	mustAppend(t, &buf, "two")
	buf.WriteString("corrupt line\n")
	_, err := Frames(buf.Bytes())
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FrameError", err)
	}
	if fe.Index != 2 {
		t.Fatalf("FrameError.Index = %d, want 2", fe.Index)
	}
}

func TestNeverPanics(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("\n"),
		[]byte("\n\n\n"),
		[]byte("00000000 \n"),
		bytes.Repeat([]byte{0}, 64),
		[]byte("ffffffff" + string(rune(0)) + "x\n"),
	}
	for _, in := range inputs {
		// Corruption errors are fine; panics are not.
		Frames(in)
		TruncateTorn(in)
	}
}
