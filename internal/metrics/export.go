package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// JSON renders the snapshot as canonical indented JSON: encoding/json
// sorts map keys, so equal snapshots marshal to identical bytes. The
// non-deterministic RuntimeScope entries are stripped first, so the
// export is byte-identical across equal-seed runs even when execution
// tracing recorded wall-clock histograms into the registry.
func (s Snapshot) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s.Deterministic(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WriteJSON writes the registry's snapshot as canonical JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	out, err := r.Snapshot().JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// PromName converts a scope name to a Prometheus metric base name:
// the vpsec_ namespace prefix plus the name with every non-[a-zA-Z0-9_]
// character replaced by '_'.
func PromName(name string) string {
	var b strings.Builder
	b.WriteString("vpsec_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the Prometheus text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects ('Inf', no
// exponent surprises for the magnitudes we emit).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): one well-formed # HELP / # TYPE pair per
// metric family, no duplicate series, counters suffixed _total,
// histograms expanded to cumulative _bucket/_sum/_count series.
// Registration-time collision checks (see Registry.register) guarantee
// family names are unique, so the output passes promtool-style lint.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot().Deterministic()
	help := make(map[string]string, len(r.kinds))
	for _, n := range r.Names() {
		help[n] = r.Help(n)
	}
	return snap.writePrometheus(w, help)
}

func (s Snapshot) writePrometheus(w io.Writer, help map[string]string) error {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)

	helpFor := func(n string) string {
		if h := help[n]; h != "" {
			return escapeHelp(h)
		}
		return "vpsec metric " + n
	}
	for _, n := range names {
		base := PromName(n)
		if v, ok := s.Counters[n]; ok {
			fam := base + "_total"
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				fam, helpFor(n), fam, fam, v); err != nil {
				return err
			}
			continue
		}
		if v, ok := s.Gauges[n]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
				base, helpFor(n), base, base, formatFloat(v)); err != nil {
				return err
			}
			continue
		}
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
			base, helpFor(n), base); err != nil {
			return err
		}
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
				base, formatFloat(bound), cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			base, cum, base, formatFloat(h.Sum), base, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the registry to path — Prometheus text when the
// path ends in .prom, JSON otherwise — the shared implementation
// behind every cmd/ tool's -metrics flag.
func WriteFile(r *Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = r.WritePrometheus(f)
	} else {
		err = r.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
