package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one parsed sample line of a Prometheus text exposition.
type PromSample struct {
	// Name is the sample's metric name (including _bucket/_sum/_count
	// suffixes for histogram series).
	Name string
	// Labels are the sample's label pairs (for this repository's
	// expositions, at most the histogram "le" label).
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// PromMetrics is a parsed exposition: samples in document order plus the
// per-metric TYPE and HELP metadata.
type PromMetrics struct {
	// Samples are every sample line, in order.
	Samples []PromSample
	// Types maps metric name to its declared TYPE.
	Types map[string]string
	// Help maps metric name to its HELP string.
	Help map[string]string
}

// Value returns the value of the unlabelled sample with the given name
// (0, false when absent).
func (m *PromMetrics) Value(name string) (float64, bool) {
	for _, s := range m.Samples {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value, true
		}
	}
	return 0, false
}

// ParsePromText parses a Prometheus text exposition (version 0.0.4, the
// subset this repository emits: no escaping inside label values, integer
// and float sample values). It enforces the structural rules a scraper
// relies on — a TYPE line precedes its samples, histogram buckets are
// cumulative and ordered with a +Inf bucket equal to _count — and returns
// an error describing the first violation.
func ParsePromText(text string) (*PromMetrics, error) {
	m := &PromMetrics{Types: map[string]string{}, Help: map[string]string{}}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("line %d: HELP without metric name", ln+1)
			}
			m.Help[name] = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", ln+1, typ)
			}
			if _, dup := m.Types[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			m.Types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		sample, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		base := promBaseName(sample.Name)
		if _, ok := m.Types[base]; !ok {
			return nil, fmt.Errorf("line %d: sample %q precedes its TYPE line", ln+1, sample.Name)
		}
		m.Samples = append(m.Samples, sample)
	}
	if err := m.checkHistograms(); err != nil {
		return nil, err
	}
	return m, nil
}

// parsePromSample parses one `name{labels} value` line.
func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return s, fmt.Errorf("malformed labels in %q", line)
		}
		for _, pair := range strings.Split(rest[i+1:j], ",") {
			if pair == "" {
				continue
			}
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return s, fmt.Errorf("malformed label %q", pair)
			}
			s.Labels[k] = v[1 : len(v)-1]
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("malformed value in %q: %w", line, err)
	}
	s.Value = v
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	return s, nil
}

// promBaseName strips the histogram series suffixes so a sample can be
// matched to its TYPE line.
func promBaseName(name string) string {
	for _, suf := range [...]string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			return base
		}
	}
	return name
}

// checkHistograms verifies every declared histogram: buckets present,
// le values strictly increasing, cumulative counts non-decreasing, +Inf
// bucket present and equal to _count.
func (m *PromMetrics) checkHistograms() error {
	names := make([]string, 0, len(m.Types))
	for n, t := range m.Types {
		if t == "histogram" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		var les []float64
		var counts []float64
		infCount, haveInf := 0.0, false
		for _, s := range m.Samples {
			if s.Name != n+"_bucket" {
				continue
			}
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s: bucket without le label", n)
			}
			if le == "+Inf" {
				infCount, haveInf = s.Value, true
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", n, le)
			}
			les = append(les, v)
			counts = append(counts, s.Value)
		}
		if !haveInf {
			return fmt.Errorf("histogram %s: no +Inf bucket", n)
		}
		for i := 1; i < len(les); i++ {
			if les[i] <= les[i-1] {
				return fmt.Errorf("histogram %s: le not increasing (%v after %v)", n, les[i], les[i-1])
			}
			if counts[i] < counts[i-1] {
				return fmt.Errorf("histogram %s: bucket counts not cumulative (%v after %v)", n, counts[i], counts[i-1])
			}
		}
		if len(counts) > 0 && counts[len(counts)-1] > infCount {
			return fmt.Errorf("histogram %s: last bucket %v exceeds +Inf %v", n, counts[len(counts)-1], infCount)
		}
		count, ok := m.Value(n + "_count")
		if !ok {
			return fmt.Errorf("histogram %s: missing _count", n)
		}
		if count != infCount {
			return fmt.Errorf("histogram %s: +Inf bucket %v != _count %v", n, infCount, count)
		}
		if _, ok := m.Value(n + "_sum"); !ok {
			return fmt.Errorf("histogram %s: missing _sum", n)
		}
	}
	return nil
}
