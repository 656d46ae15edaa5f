package dblayout

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/replay"
)

// Document is a decoded, validated problem document: the JSON that
// cmd/advisor reads from -problem and cmd/advisord takes as a tenant's PUT
// body. README "Problem document" describes its fields.
type Document struct {
	// Problem is the layout problem the document describes.
	Problem Problem
	// Current is the layout the data occupies today: the document's
	// "current" matrix, or SEE when it gives none.
	Current *Layout
	// Models holds each target's model reference: a built-in device type
	// ("disk15k" when the document names none), an "@file" reference as
	// written, or "" for a target with an inline model_json.
	Models []string
}

// ReadDocument decodes and validates a problem document. It checks object
// kinds and sizes, target capacities and model references (loading inline
// model_json models), and the "current" layout's shape, integrity and
// capacity before it asks named for any other model, so a malformed
// document costs no calibration. named gets each "@file" reference first,
// then each built-in device type. Last, it validates the whole instance.
func ReadDocument(data []byte, named func(ref string) (*CostModel, error)) (*Document, error) {
	var in struct {
		Objects []struct {
			Name   string `json:"name"`
			SizeMB int64  `json:"size_mb"`
			Kind   string `json:"kind"`
		} `json:"objects"`
		Targets []struct {
			Name       string          `json:"name"`
			CapacityMB int64           `json:"capacity_mb"`
			Model      string          `json:"model"`
			ModelJSON  json.RawMessage `json:"model_json"`
		} `json:"targets"`
		Workloads *WorkloadSet `json:"workloads"`
		Current   [][]float64  `json:"current"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("parsing problem document: %w", err)
	}
	if len(in.Objects) == 0 || len(in.Targets) == 0 {
		return nil, fmt.Errorf("problem document needs at least one object and one target")
	}
	doc := &Document{Problem: Problem{Workloads: in.Workloads}}
	p := &doc.Problem
	for _, o := range in.Objects {
		kind, ok := objectKinds[strings.ToLower(o.Kind)]
		if !ok {
			return nil, fmt.Errorf("unknown object kind %q", o.Kind)
		}
		if o.SizeMB <= 0 {
			return nil, fmt.Errorf("object %q: size_mb must be positive", o.Name)
		}
		p.Objects = append(p.Objects, Object{Name: o.Name, Size: o.SizeMB << 20, Kind: kind})
	}
	for _, t := range in.Targets {
		if t.CapacityMB <= 0 {
			return nil, fmt.Errorf("target %q: capacity_mb must be positive", t.Name)
		}
		target := &Target{Name: t.Name, Capacity: t.CapacityMB << 20}
		ref := t.Model
		switch {
		case len(t.ModelJSON) > 0:
			m, err := costmodel.Load(bytes.NewReader(t.ModelJSON))
			if err != nil {
				return nil, fmt.Errorf("target %q: model_json: %w", t.Name, err)
			}
			target.Model, ref = m, ""
		case ref == "":
			ref = "disk15k"
		case !strings.HasPrefix(ref, "@"):
			if _, err := replay.Builtin(ref, t.Name, 0); err != nil {
				return nil, fmt.Errorf("target %q: %w", t.Name, err)
			}
		}
		p.Targets = append(p.Targets, target)
		doc.Models = append(doc.Models, ref)
	}
	inst := p.instance()
	doc.Current = SEE(inst.N(), inst.M())
	if in.Current != nil {
		cur, err := layout.FromRows(in.Current, inst.N(), inst.M())
		if err == nil {
			err = cur.CheckCapacity(inst.Sizes(), inst.Capacities())
		}
		if err != nil {
			return nil, fmt.Errorf("current layout: %w", err)
		}
		doc.Current = cur
	}
	// "@file" references resolve before built-in types, so a reference the
	// caller refuses or cannot load costs no calibration either.
	for _, files := range []bool{true, false} {
		for j, t := range p.Targets {
			if t.Model != nil || strings.HasPrefix(doc.Models[j], "@") != files {
				continue
			}
			m, err := named(doc.Models[j])
			if err != nil {
				return nil, fmt.Errorf("target %q: %w", t.Name, err)
			}
			t.Model = m
		}
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

// objectKinds maps a document object's "kind" to its ObjectKind; an absent
// kind is a table.
var objectKinds = map[string]ObjectKind{
	"": KindTable, "table": KindTable, "index": KindIndex, "log": KindLog, "temp": KindTemp,
}
