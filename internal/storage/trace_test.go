package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// newTestRand returns a deterministic RNG for tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestTraceRoundTrip(t *testing.T) {
	in := &Trace{Records: []TraceRecord{
		{Time: 0.5, Object: 1, Stream: 7, Target: "d0", Offset: 4096, Size: 8192, Write: false},
		{Time: 0.9, Object: 2, Stream: 8, Target: "d1", Offset: 0, Size: 131072, Write: true},
	}}
	var buf bytes.Buffer
	n, err := in.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d, wrote %d bytes", n, buf.Len())
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != len(in.Records) {
		t.Fatalf("got %d records, want %d", len(out.Records), len(in.Records))
	}
	for i := range in.Records {
		if in.Records[i] != out.Records[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, out.Records[i], in.Records[i])
		}
	}
}

func TestTraceFilterObject(t *testing.T) {
	tr := &Trace{Records: []TraceRecord{
		{Object: 1}, {Object: 2}, {Object: 1}, {Object: 3},
	}}
	f := tr.FilterObject(1)
	if f.Len() != 2 {
		t.Fatalf("filtered %d records, want 2", f.Len())
	}
}

func TestTraceDuration(t *testing.T) {
	tr := &Trace{Records: []TraceRecord{{Time: 1.0}, {Time: 2.5}, {Time: 4.0}}}
	if d := tr.Duration(); d != 3.0 {
		t.Fatalf("duration = %g, want 3.0", d)
	}
	if d := (&Trace{}).Duration(); d != 0 {
		t.Fatalf("empty trace duration = %g, want 0", d)
	}
}

func TestMultiTracer(t *testing.T) {
	a, b := &Trace{}, &Trace{}
	m := MultiTracer(a, nil, b)
	m.Record(TraceRecord{Object: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out failed: %d, %d", a.Len(), b.Len())
	}
	if MultiTracer(nil, nil) != nil {
		t.Fatal("MultiTracer of nils should be nil")
	}
	if got := MultiTracer(a); got != Tracer(a) {
		t.Fatal("single tracer should be returned unwrapped")
	}
}

func TestRunPatternScanCoversExtent(t *testing.T) {
	p := ScanPattern(1000, 10*512, 512, false)
	var want int64 = 1000
	for {
		off, size, write, ok := p.Next()
		if !ok {
			break
		}
		if write {
			t.Fatal("read scan produced a write")
		}
		if off != want || size != 512 {
			t.Fatalf("offset %d, want %d", off, want)
		}
		want += 512
	}
	if want != 1000+10*512 {
		t.Fatalf("scan stopped at %d, want %d", want, 1000+10*512)
	}
}

func TestRunPatternRunLengths(t *testing.T) {
	p := &RunPattern{Rng: newTestRand(3), Extent: 1 << 30, Size: 4096, RunLen: 5, Count: 50}
	var offs []int64
	for {
		off, _, _, ok := p.Next()
		if !ok {
			break
		}
		offs = append(offs, off)
	}
	if len(offs) != 50 {
		t.Fatalf("issued %d, want 50", len(offs))
	}
	// Within a run, offsets advance by Size.
	for i := 0; i < 50; i += 5 {
		for j := 1; j < 5; j++ {
			if offs[i+j] != offs[i+j-1]+4096 {
				t.Fatalf("run broken at %d", i+j)
			}
		}
	}
}

func TestRunPatternWriteFraction(t *testing.T) {
	p := &RunPattern{Rng: newTestRand(5), Extent: 1 << 30, Size: 4096, RunLen: 1, Count: 2000, WriteFrac: 0.3}
	writes := 0
	for {
		_, _, w, ok := p.Next()
		if !ok {
			break
		}
		if w {
			writes++
		}
	}
	frac := float64(writes) / 2000
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction %.3f, want ~0.3", frac)
	}
}

// TestDecodeLineTakesWriteToForm checks that the fast decoder, not the json
// fallback, reads every WriteTo line whose target json leaves unescaped, and
// that it declines the others.
func TestDecodeLineTakesWriteToForm(t *testing.T) {
	tr := edgeTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != tr.Len() {
		t.Fatalf("%d lines for %d records", len(lines), tr.Len())
	}
	names := map[string]string{}
	for i, want := range tr.Records {
		plain := !strings.ContainsAny(want.Target, "\"\\<>&")
		for _, c := range []byte(want.Target) {
			plain = plain && c >= 0x20 && c < 0x7f
		}
		rec, ok := decodeLine(lines[i], names)
		if ok != plain {
			t.Fatalf("line %d (%s): decoded %v, want %v", i+1, lines[i], ok, plain)
		}
		if ok && (rec != want || math.Signbit(rec.Time) != math.Signbit(want.Time)) {
			t.Fatalf("line %d: decoded %+v, want %+v", i+1, rec, want)
		}
	}
}

// benchTrace returns a deterministic trace of about 2.5 MB in WriteTo's
// form, shaped like a replayed TPC-H + TPC-C window: 40 objects on four
// disks, exponential inter-arrival times, 8 KiB and 128 KiB requests.
func benchTrace(b *testing.B) []byte {
	rng := newTestRand(1)
	tr := &Trace{}
	var now float64
	for i := 0; i < 24000; i++ {
		now += rng.ExpFloat64() * 2.5e-3
		size := int64(8192)
		if rng.Intn(3) == 0 {
			size = 131072
		}
		tr.Record(TraceRecord{
			Time: now, Object: rng.Intn(40), Stream: uint64(rng.Intn(5000)),
			Target: fmt.Sprintf("disk%d", rng.Intn(4)), Offset: rng.Int63n(1<<37) &^ 4095,
			Size: size, Write: rng.Intn(5) == 0,
		})
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadTrace decodes a 2.5 MB trace per op and reports MB/s.
func BenchmarkReadTrace(b *testing.B) {
	raw := benchTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTrace(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
