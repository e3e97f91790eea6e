package main

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// wantsPrometheus selects the exposition format for /metrics: an explicit
// ?format=prometheus always wins, and content negotiation honors scrapers
// whose Accept header asks for text/plain (the Prometheus exposition
// content type) without mentioning JSON first. The default stays JSON —
// existing dashboards and the smoke test parse it with jq.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	if !strings.Contains(accept, "text/plain") {
		return false
	}
	// "text/plain, application/json" style headers pick whichever comes
	// first; a lone application/json (or */*) already returned false above.
	jsonIdx := strings.Index(accept, "application/json")
	return jsonIdx == -1 || strings.Index(accept, "text/plain") < jsonIdx
}

// promSample is one Prometheus sample and the JSON key path of the leaf it
// renders.
type promSample struct {
	family, typ string
	labels      string // rendered {k="v",...}, keys sorted; empty for none
	value       float64
	path        string
}

// promTag is a parsed prom struct tag. A /metrics payload is a typed
// struct, and each of its fields declares both renderings: the json tag
// names the JSON key, and the prom tag the Prometheus series,
//
//	prom:"name[,counter|gauge][,label...][,label=value...][,if=Field]"
//
// On a numeric or bool leaf, counter or gauge exposes the field, and name
// is its family after the "relmaxd_" prefix and the names of the enclosing
// struct, pointer, map and slice fields, which act as prefixes. A map's
// keys are the values of the first label its tag names; maps nested in it
// take the remaining names in turn. A string field with a family is an
// info series: its value labels a sample of 1. A string field with a label
// but no family labels every series of its struct, so a slice element can
// name itself. label=value adds a constant label, and if=Field exposes the
// leaf only while its sibling Field is non-zero. A leaf without counter or
// gauge, and an unexported field, is not exposed.
type promTag struct {
	name, typ, cond string
	labels          []string // label names, taken in turn by maps and strings
	consts          []promLabel
}

type promLabel struct{ name, value string }

func parsePromTag(tag string) promTag {
	items := strings.Split(tag, ",")
	pt := promTag{name: items[0]}
	for _, it := range items[1:] {
		k, v, pair := strings.Cut(it, "=")
		switch {
		case it == "counter" || it == "gauge":
			pt.typ = it
		case !pair:
			pt.labels = append(pt.labels, it)
		case k == "if":
			pt.cond = v
		default:
			pt.consts = append(pt.consts, promLabel{k, v})
		}
	}
	return pt
}

// promSamples walks a payload's declared series in field order; map keys
// iterate sorted, so identical state renders identically.
func promSamples(payload any) []promSample {
	var out []promSample
	walkProm(reflect.ValueOf(payload), promTag{}, "relmaxd_", nil, "", &out)
	return out
}

// walkProm renders v, the field declared by tag, whose family (or family
// prefix) is name.
func walkProm(v reflect.Value, tag promTag, name string, labels []promLabel, path string, out *[]promSample) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			walkProm(v.Elem(), tag, name, labels, path, out)
		}
	case reflect.Struct:
		walkFields(v, name, labels, path, out)
	case reflect.Map:
		if len(tag.labels) == 0 {
			return
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		inner := tag
		inner.labels = tag.labels[1:]
		for _, k := range keys {
			walkProm(v.MapIndex(k), inner, name,
				withLabel(labels, tag.labels[0], k.String()), joinPath(path, k.String()), out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			walkProm(v.Index(i), tag, name, labels, joinPath(path, strconv.Itoa(i)), out)
		}
	case reflect.String:
		if tag.typ != "" {
			*out = append(*out, promSample{name, tag.typ,
				renderLabels(withLabel(labels, tag.labels[0], v.String())), 1, path})
		}
	default:
		if tag.typ != "" {
			*out = append(*out, promSample{name, tag.typ,
				renderLabels(append(labels[:len(labels):len(labels)], tag.consts...)), promValue(v), path})
		}
	}
}

// walkFields renders a struct's fields under the family prefix.
func walkFields(v reflect.Value, prefix string, labels []promLabel, path string, out *[]promSample) {
	t := v.Type()
	for i := range t.NumField() {
		tag := parsePromTag(t.Field(i).Tag.Get("prom"))
		if t.Field(i).Type.Kind() == reflect.String && tag.name == "" && len(tag.labels) > 0 {
			labels = withLabel(labels, tag.labels[0], v.Field(i).String())
		}
	}
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() && !f.Anonymous {
			continue
		}
		tag := parsePromTag(f.Tag.Get("prom"))
		if tag.cond != "" && v.FieldByName(tag.cond).IsZero() {
			continue
		}
		p := path
		if !f.Anonymous { // encoding/json promotes an embedded struct's keys
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if key == "" {
				key = f.Name
			}
			p = joinPath(path, key)
		}
		walkProm(v.Field(i), tag, prefix+tag.name, labels, p, out)
	}
}

func promValue(v reflect.Value) float64 {
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	case v.CanFloat():
		return v.Float()
	}
	panic("relmaxd: prom tag on a non-numeric field of type " + v.Type().String())
}

// withLabel returns labels plus one, never sharing the caller's backing
// array with a sibling's.
func withLabel(labels []promLabel, name, value string) []promLabel {
	return append(labels[:len(labels):len(labels)], promLabel{name, value})
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

func renderLabels(labels []promLabel) string {
	if len(labels) == 0 {
		return ""
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].name < labels[j].name })
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf(`%s="%s"`, l.name, escapeLabel(l.value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// writePrometheus serves a payload's declared series as a text exposition.
// The format requires every sample of a family to form one group under its
// TYPE line, so samples are grouped per family, in the order each family
// is first declared.
func writePrometheus(w http.ResponseWriter, payload any) {
	var order []string
	fams := make(map[string]*strings.Builder)
	for _, s := range promSamples(payload) {
		b := fams[s.family]
		if b == nil {
			b = &strings.Builder{}
			fmt.Fprintf(b, "# TYPE %s %s\n", s.family, s.typ)
			fams[s.family] = b
			order = append(order, s.family)
		}
		// %g keeps integers integral and floats compact; Prometheus parses both.
		fmt.Fprintf(b, "%s%s %g\n", s.family, s.labels, s.value)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	for _, name := range order {
		_, _ = io.WriteString(w, fams[name].String())
	}
}
