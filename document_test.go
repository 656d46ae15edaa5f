package dblayout_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dblayout"
	"dblayout/internal/layouttest"
)

// docJSON renders a problem document with three 96 MiB objects on three
// targets, after edit has patched its decoded form.
func docJSON(t *testing.T, edit func(doc map[string]interface{})) []byte {
	t.Helper()
	var doc map[string]interface{}
	if err := json.Unmarshal([]byte(`{
		"objects": [
			{"name": "A", "size_mb": 96, "kind": "table"},
			{"name": "B", "size_mb": 96, "kind": "index"},
			{"name": "C", "size_mb": 96}
		],
		"targets": [
			{"name": "d0", "capacity_mb": 1024, "model": "disk15k"},
			{"name": "d1", "capacity_mb": 1024},
			{"name": "d2", "capacity_mb": 150, "model": "@models/ssd.json"}
		],
		"workloads": {"workloads": [
			{"name": "A", "read_size": 131072, "read_rate": 100, "run_count": 64},
			{"name": "B", "read_size": 8192, "read_rate": 150, "run_count": 1},
			{"name": "C", "read_size": 8192, "read_rate": 20, "run_count": 1}
		]}
	}`), &doc); err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(doc)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func object(doc map[string]interface{}, i int) map[string]interface{} {
	return doc["objects"].([]interface{})[i].(map[string]interface{})
}

func target(doc map[string]interface{}, j int) map[string]interface{} {
	return doc["targets"].([]interface{})[j].(map[string]interface{})
}

// TestReadDocumentRejects is the reader's refusal table: one case per check,
// each with the exact message both cmd/advisor and the daemon report, and
// none of them asks for a named model, so no refusal costs a calibration.
func TestReadDocumentRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func(doc map[string]interface{})
		want string
	}{
		{"unknown kind", func(d map[string]interface{}) { object(d, 1)["kind"] = "view" },
			`unknown object kind "view"`},
		{"zero size", func(d map[string]interface{}) { object(d, 2)["size_mb"] = 0 },
			`object "C": size_mb must be positive`},
		{"negative size", func(d map[string]interface{}) { object(d, 0)["size_mb"] = -1 },
			`object "A": size_mb must be positive`},
		{"no objects", func(d map[string]interface{}) { d["objects"] = []interface{}{} },
			"problem document needs at least one object and one target"},
		{"no targets", func(d map[string]interface{}) { delete(d, "targets") },
			"problem document needs at least one object and one target"},
		{"zero capacity", func(d map[string]interface{}) { target(d, 1)["capacity_mb"] = 0 },
			`target "d1": capacity_mb must be positive`},
		{"unknown built-in model", func(d map[string]interface{}) { target(d, 1)["model"] = "floppy" },
			`target "d1": unknown model "floppy" (want disk15k, disk7200 or ssd)`},
		{"bad model_json", func(d map[string]interface{}) { target(d, 0)["model_json"] = map[string]interface{}{} },
			`target "d0": model_json: `},
		{"current row count", func(d map[string]interface{}) { d["current"] = [][]float64{{1, 0, 0}, {1, 0, 0}} },
			"current layout: layout: 2 rows for 3 objects"},
		{"current row length", func(d map[string]interface{}) { d["current"] = [][]float64{{1, 0, 0}, {1, 0}, {1, 0, 0}} },
			"current layout: layout: row 1 has 2 fractions for 3 targets"},
		{"current row sum", func(d map[string]interface{}) { d["current"] = [][]float64{{1, 0, 0}, {0.5, 0.4, 0}, {1, 0, 0}} },
			"current layout: layout: row 1 sums to 0.9, want 1"},
		{"current fraction range", func(d map[string]interface{}) { d["current"] = [][]float64{{1, 0, 0}, {1.5, -0.5, 0}, {1, 0, 0}} },
			"current layout: layout: L[1][0]=1.5 outside [0,1]"},
		{"current over capacity", func(d map[string]interface{}) { d["current"] = [][]float64{{0, 0, 1}, {0, 0, 1}, {1, 0, 0}} },
			"current layout: layout: target 2 assigned 201326592 bytes, capacity 157286400"},
		{"not JSON", func(d map[string]interface{}) { d["objects"] = "A" },
			"parsing problem document: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := dblayout.ReadDocument(docJSON(t, tc.edit), func(ref string) (*dblayout.CostModel, error) {
				t.Fatalf("asked for model %q before refusing", ref)
				return nil, nil
			})
			// A want ending in ": " pins a prefix; the decoder words the rest.
			match := err != nil && err.Error() == tc.want
			if strings.HasSuffix(tc.want, ": ") {
				match = err != nil && strings.HasPrefix(err.Error(), tc.want)
			}
			if !match {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}

// TestReadDocument pins what the reader hands back: objects in bytes with
// their kinds, named models asked for by reference, "@file" ones first and
// "disk15k" for a target that names none, inline model_json loaded without
// asking, the current
// layout (SEE when absent), and the instance checks that need the models.
func TestReadDocument(t *testing.T) {
	var asked []string
	named := func(ref string) (*dblayout.CostModel, error) {
		asked = append(asked, ref)
		return layouttest.DiskModel(), nil
	}
	doc, err := dblayout.ReadDocument(docJSON(t, func(d map[string]interface{}) {
		target(d, 1)["model_json"] = layouttest.SSDModel()
	}), named)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(asked, ","); got != "@models/ssd.json,disk15k" {
		t.Fatalf("asked for %s", got)
	}
	if got := strings.Join(doc.Models, ","); got != "disk15k,,@models/ssd.json" {
		t.Fatalf("models %q", got)
	}
	p := doc.Problem
	if p.Objects[1].Size != 96<<20 || p.Objects[1].Kind != dblayout.KindIndex || p.Objects[2].Kind != dblayout.KindTable {
		t.Fatalf("objects %+v", p.Objects)
	}
	if p.Targets[2].Capacity != 150<<20 || p.Targets[1].Model == nil || p.Workloads.Len() != 3 {
		t.Fatalf("targets %+v", p.Targets)
	}
	if see := dblayout.SEE(3, 3); doc.Current.N != 3 || doc.Current.At(1, 2) != see.At(1, 2) {
		t.Fatalf("current %v, want SEE", doc.Current)
	}

	asked = nil
	doc, err = dblayout.ReadDocument(docJSON(t, func(d map[string]interface{}) {
		target(d, 1)["model"] = "disk15k"
		d["current"] = [][]float64{{1, 0, 0}, {0, 0.5, 0.5}, {0, 1, 0}}
	}), named)
	if err != nil || doc.Current.At(1, 2) != 0.5 || len(asked) != 3 {
		t.Fatalf("current %v, asked %v, err %v", doc.Current, asked, err)
	}

	// Instance checks run once the models are in hand.
	_, err = dblayout.ReadDocument(docJSON(t, func(d map[string]interface{}) {
		object(d, 2)["size_mb"] = 4096
	}), named)
	if !errors.Is(err, dblayout.ErrInfeasible) {
		t.Fatalf("oversized data: %v, want ErrInfeasible", err)
	}
	_, err = dblayout.ReadDocument(docJSON(t, func(d map[string]interface{}) { delete(d, "workloads") }), named)
	if err == nil || err.Error() != "layout: instance with 3 objects but 0 workloads" {
		t.Fatalf("no workloads: %v", err)
	}
	failing := func(string) (*dblayout.CostModel, error) { return nil, errors.New("no such model") }
	if _, err := dblayout.ReadDocument(docJSON(t, nil), failing); err == nil || err.Error() != `target "d2": no such model` {
		t.Fatalf("failing resolver: %v", err)
	}
}
