package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// TraceRecord describes one block I/O request as captured at submission,
// equivalent to the records the paper obtained from its instrumented kernel.
type TraceRecord struct {
	Time   float64 `json:"t"`      // submission time, simulated seconds
	Object int     `json:"obj"`    // database object index
	Stream uint64  `json:"stream"` // logical stream identifier
	Target string  `json:"target"` // device name
	Offset int64   `json:"off"`    // byte offset on the target
	Size   int64   `json:"size"`   // bytes
	Write  bool    `json:"w"`      // false = read
}

// Tracer receives a record for every request submitted through the engine.
type Tracer interface {
	Record(rec TraceRecord)
}

// Trace is an in-memory trace, in submission order.
type Trace struct {
	Records []TraceRecord
}

// Record appends rec to the trace. Trace implements Tracer.
func (t *Trace) Record(rec TraceRecord) { t.Records = append(t.Records, rec) }

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Duration returns the span from the first to the last record.
func (t *Trace) Duration() float64 {
	if len(t.Records) < 2 {
		return 0
	}
	return t.Records[len(t.Records)-1].Time - t.Records[0].Time
}

// FilterObject returns a new trace containing only requests for the given
// object, preserving order.
func (t *Trace) FilterObject(obj int) *Trace {
	out := &Trace{}
	for _, r := range t.Records {
		if r.Object == obj {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// WriteTo streams the trace as JSON lines, one encoding/json object per
// record with its keys in field order. It implements io.WriterTo: n is the
// number of bytes written to w.
func (t *Trace) WriteTo(w io.Writer) (n int64, err error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	enc := json.NewEncoder(bw)
	for i := range t.Records {
		if err := enc.Encode(&t.Records[i]); err != nil {
			return cw.n, fmt.Errorf("storage: encoding trace record %d: %w", i, err)
		}
	}
	err = bw.Flush()
	return cw.n, err
}

// countingWriter counts the bytes its writer accepts.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Validate rejects records no simulation could have produced: non-finite or
// negative times, negative offsets, and non-positive sizes. Replaying such a
// record would corrupt device state (or panic deep inside a RAID group), so
// they are refused at the parsing boundary instead.
func (rec *TraceRecord) Validate() error {
	switch {
	case math.IsNaN(rec.Time) || math.IsInf(rec.Time, 0) || rec.Time < 0:
		return fmt.Errorf("storage: invalid time %g", rec.Time)
	case rec.Offset < 0:
		return fmt.Errorf("storage: negative offset %d", rec.Offset)
	case rec.Size <= 0:
		return fmt.Errorf("storage: non-positive size %d", rec.Size)
	}
	return nil
}

// ReadTrace parses a JSON-lines trace produced by WriteTo. Blank lines are
// skipped; a malformed or invalid record is reported with its 1-based line
// number so multi-gigabyte trace files can be repaired without bisection.
//
// A line in exactly WriteTo's form is decoded by decodeLine without
// encoding/json; every other line, reordered keys and escaped strings
// included, goes to json.Unmarshal. Both give the same records and the same
// errors for every input.
//
// Records are decoded into blocks of traceBlock and copied once into an
// exact-size Records slice at the end, instead of growing one slice by
// append, which copies every record about twice more and holds the old and
// the new backing array at once while it does.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	line := 0
	names := map[string]string{} // target names, shared by the records naming them
	var full [][]TraceRecord     // filled blocks, in order
	var block []TraceRecord      // the block being filled
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		rec, ok := decodeLine(b, names)
		if !ok {
			var err error
			if rec, err = unmarshalRecord(b); err != nil {
				return nil, fmt.Errorf("storage: trace line %d: %w", line, err)
			}
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("storage: trace line %d: %w", line, err)
		}
		if len(block) == cap(block) {
			if block != nil {
				full = append(full, block)
			}
			block = make([]TraceRecord, 0, traceBlock)
		}
		block = append(block, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("storage: trace line %d: %w", line+1, err)
	}
	if block != nil {
		t.Records = make([]TraceRecord, 0, len(full)*traceBlock+len(block))
		for _, b := range full {
			t.Records = append(t.Records, b...)
		}
		t.Records = append(t.Records, block...)
	}
	return t, nil
}

// traceBlock is the number of records ReadTrace decodes into one block.
const traceBlock = 4096

// unmarshalRecord decodes one line with encoding/json. It is a function of
// its own so that only fallback lines pay for the heap record json.Unmarshal
// needs.
func unmarshalRecord(b []byte) (TraceRecord, error) {
	var rec TraceRecord
	err := json.Unmarshal(b, &rec)
	return rec, err
}

// decodeLine decodes b if it is a record in exactly the form WriteTo writes:
// the keys t, obj, stream, target, off, size and w in that order, no
// whitespace, numbers in the JSON number grammar with no fraction or exponent
// on the integer fields and no sign on stream, a target of printable ASCII
// other than '"' and '\', and values the strconv calls encoding/json makes
// accept. For such a line json.Unmarshal yields the same record. It reports
// false for any other line. names interns target names: records naming the
// same target share one string.
func decodeLine(b []byte, names map[string]string) (TraceRecord, bool) {
	l := traceLine{b: b}
	l.expect(`{"t":`)
	tm := l.float()
	l.expect(`,"obj":`)
	obj := l.integer()
	l.expect(`,"stream":`)
	stream := l.unsigned()
	l.expect(`,"target":`)
	name := l.str()
	l.expect(`,"off":`)
	off := l.integer()
	l.expect(`,"size":`)
	size := l.integer()
	l.expect(`,"w":`)
	w := l.boolean()
	l.expect(`}`)
	if l.bad || l.i != len(b) || int64(int(obj)) != obj {
		return TraceRecord{}, false
	}
	target, ok := names[string(name)]
	if !ok {
		target = string(name)
		names[target] = target
	}
	return TraceRecord{Time: tm, Object: int(obj), Stream: stream, Target: target,
		Offset: off, Size: size, Write: w}, true
}

// traceLine is decodeLine's cursor over one line. The first step that does
// not match sets bad, and every later step is then a no-op.
type traceLine struct {
	b   []byte
	i   int
	bad bool
}

// expect consumes s.
func (l *traceLine) expect(s string) {
	if l.bad || len(l.b)-l.i < len(s) || string(l.b[l.i:l.i+len(s)]) != s {
		l.bad = true
		return
	}
	l.i += len(s)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits consumes a run of decimal digits and reports whether it had any.
func (l *traceLine) digits() bool {
	start := l.i
	for l.i < len(l.b) && isDigit(l.b[l.i]) {
		l.i++
	}
	return l.i > start
}

// number consumes a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// without the minus sign unless signed and without fraction and exponent
// unless real.
func (l *traceLine) number(signed, real bool) []byte {
	if l.bad {
		return nil
	}
	start := l.i
	if signed && l.i < len(l.b) && l.b[l.i] == '-' {
		l.i++
	}
	switch {
	case l.i < len(l.b) && l.b[l.i] == '0':
		l.i++
	case !l.digits():
		l.bad = true
		return nil
	}
	if real && l.i < len(l.b) && l.b[l.i] == '.' {
		l.i++
		if !l.digits() {
			l.bad = true
			return nil
		}
	}
	if real && l.i < len(l.b) && (l.b[l.i] == 'e' || l.b[l.i] == 'E') {
		l.i++
		if l.i < len(l.b) && (l.b[l.i] == '+' || l.b[l.i] == '-') {
			l.i++
		}
		if !l.digits() {
			l.bad = true
			return nil
		}
	}
	return l.b[start:l.i]
}

// float, integer and unsigned consume a number and convert it as encoding/json does
// for a float64, int and uint64 field.
func (l *traceLine) float() float64 {
	s := l.number(true, true)
	if l.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(s), 64)
	l.bad = err != nil
	return v
}

func (l *traceLine) integer() int64 {
	s := l.number(true, false)
	if l.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(s), 10, 64)
	l.bad = err != nil
	return v
}

func (l *traceLine) unsigned() uint64 {
	s := l.number(false, false)
	if l.bad {
		return 0
	}
	v, err := strconv.ParseUint(string(s), 10, 64)
	l.bad = err != nil
	return v
}

// str consumes a quoted string of printable ASCII other than '"' and '\'
// and returns its contents.
func (l *traceLine) str() []byte {
	l.expect(`"`)
	if l.bad {
		return nil
	}
	start := l.i
	for l.i < len(l.b) && l.b[l.i] >= 0x20 && l.b[l.i] < 0x7f && l.b[l.i] != '"' && l.b[l.i] != '\\' {
		l.i++
	}
	s := l.b[start:l.i]
	l.expect(`"`)
	return s
}

// boolean consumes true or false.
func (l *traceLine) boolean() bool {
	if !l.bad && l.i < len(l.b) && l.b[l.i] == 't' {
		l.expect("true")
		return true
	}
	l.expect("false")
	return false
}

// multiTracer fans records out to several tracers.
type multiTracer []Tracer

func (m multiTracer) Record(rec TraceRecord) {
	for _, t := range m {
		t.Record(rec)
	}
}

// MultiTracer combines tracers; nil entries are dropped. It returns nil when
// no tracer remains.
func MultiTracer(ts ...Tracer) Tracer {
	var out multiTracer
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}
