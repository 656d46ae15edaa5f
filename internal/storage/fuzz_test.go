package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// readTraceJSON is ReadTrace with every line decoded by json.Unmarshal: the
// reference the fast line decoder is checked against.
func readTraceJSON(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("storage: trace line %d: %w", line, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("storage: trace line %d: %w", line, err)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("storage: trace line %d: %w", line+1, err)
	}
	return t, nil
}

// edgeTrace holds records whose WriteTo lines reach the edges of the fast
// decoder: escaped and non-ASCII targets, -0, and extreme numbers.
func edgeTrace() *Trace {
	return &Trace{Records: []TraceRecord{
		{Time: 0.5, Object: 1, Stream: 7, Target: "d0", Offset: 4096, Size: 8192},
		{Time: math.Copysign(0, -1), Object: -3, Stream: math.MaxUint64, Target: "d1",
			Offset: math.MaxInt64, Size: 1, Write: true},
		{Time: 2, Target: `q"uo\te<&>`, Size: 1},
		{Time: 3, Target: `d0\`, Size: 1},
		{Time: math.MaxFloat64, Object: math.MinInt64, Target: "диск \x01", Size: math.MaxInt64},
		{Time: 5e-324, Object: math.MaxInt64, Target: "", Offset: 1, Size: 512},
		{Time: 1e-7, Target: "~ !#$%'()*+,-./:;=?@[]^_`{|}", Size: 4096},
		{Time: 1e21, Target: "disk1", Size: 4096},
		{Time: 123456.78901234567, Object: 39, Stream: 1 << 53, Target: "disk1", Offset: 1 << 40, Size: 131072},
	}}
}

// FuzzReadTrace is a differential fuzz of the JSONL trace parser against
// readTraceJSON: on every input both must return the same error text, or the
// same records with Time compared bit for bit. The parser must never panic,
// every error names its line, and anything it accepts must survive a
// write/re-read round trip: every record it lets through is one the replay
// engine will feed to devices that panic on impossible geometry.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if _, err := edgeTrace().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		f.Add([]byte(line))
	}
	f.Add([]byte(`{"t":0,"obj":1,"stream":2,"target":"d0","off":4096,"size":8192,"w":false}`))
	f.Add([]byte("{\"t\":0,\"size\":4096}\n\n{\"t\":1.5,\"size\":8192,\"w\":true}\n"))
	f.Add([]byte(`{"obj":1,"t":0.5,"stream":2,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(" { \"t\": 0.5, \"obj\": 1, \"stream\": 2, \"target\": \"d0\", \"off\": 0, \"size\": 8, \"w\": true }\r\n"))
	f.Add([]byte(`{"T":0.5,"OBJ":1,"stream":2,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":0.5,"obj":1,"stream":2,"target":"d0","off":0,"size":8,"w":false,"t":1}`))
	f.Add([]byte(`{"t":01,"obj":1,"stream":2,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":1.,"obj":1,"stream":2,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":1E+2,"obj":1.0,"stream":2,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":1,"obj":-0,"stream":-1,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":1,"obj":1,"stream":2,"target":"d0","off":-0,"size":8e0,"w":false}`))
	f.Add([]byte(`{"t":1e999,"obj":1,"stream":2,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":1e-999,"obj":1,"stream":2,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":1,"obj":9223372036854775808,"stream":18446744073709551616,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":1,"obj":1,"stream":2,"target":"d0","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":1,"obj":1,"stream":2,"target":null,"off":0,"size":8,"w":true}x`))
	f.Add([]byte(`{"t":1,"obj":1,"stream":2,"target":"\u0064\u0030","off":0,"size":8,"w":false}`))
	f.Add([]byte(`{"t":-1,"size":4096}`))
	f.Add([]byte(`{"t":0,"size":-1}`))
	f.Add([]byte(`{"t":1e999,"size":4096}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		ref, refErr := readTraceJSON(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("error %v, json reference %v", err, refErr)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error without a line number: %v", err)
			}
			return
		}
		if tr.Len() != ref.Len() {
			t.Fatalf("%d records, json reference %d", tr.Len(), ref.Len())
		}
		for i, rec := range tr.Records {
			want := ref.Records[i]
			if math.Float64bits(rec.Time) != math.Float64bits(want.Time) {
				t.Fatalf("record %d: time %v (%#x), json reference %v (%#x)", i,
					rec.Time, math.Float64bits(rec.Time), want.Time, math.Float64bits(want.Time))
			}
			rec.Time, want.Time = 0, 0
			if rec != want {
				t.Fatalf("record %d: %+v, json reference %+v", i, rec, want)
			}
		}
		for i := range tr.Records {
			if verr := tr.Records[i].Validate(); verr != nil {
				t.Fatalf("accepted invalid record %d: %v", i, verr)
			}
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip lost records: %d -> %d", tr.Len(), back.Len())
		}
	})
}
