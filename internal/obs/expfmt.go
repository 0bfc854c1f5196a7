package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ExpositionFamily is what ParseExposition learned about one metric
// family: its declared type, how many sample lines it carried, and — for
// histograms — the +Inf bucket count and whether one was present.
type ExpositionFamily struct {
	Type    string
	Samples int
	// Value is the family's last sample outside a histogram: the reading
	// of an unlabelled counter or gauge.
	Value          float64
	HistogramCount int64
	SawInf         bool
}

// ParseExposition is a minimal Prometheus text-format (0.0.4) parser: it
// validates comment/TYPE structure, sample-line shape, and histogram
// bucket monotonicity, returning the families it saw. The obs and server
// tests and the real-binary acceptance test use it as the format gate — it
// accepts exactly the subset WritePrometheus emits plus float values, so
// a malformed render cannot slip through as "some other valid dialect".
func ParseExposition(r io.Reader) (map[string]*ExpositionFamily, error) {
	fams := map[string]*ExpositionFamily{}
	lastCum := map[string]int64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "HELP" {
				continue
			}
			if len(fields) != 4 || fields[1] != "TYPE" {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name, typ := fields[2], fields[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
			}
			if _, dup := fams[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for family %q", lineNo, name)
			}
			fams[name] = &ExpositionFamily{Type: typ}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name {
				if f, ok := fams[base]; ok && f.Type == "histogram" {
					family = base
				}
				break
			}
		}
		f, ok := fams[family]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q precedes its TYPE line", lineNo, name)
		}
		f.Samples++
		if f.Type != "histogram" {
			f.Value = value
		} else if strings.HasSuffix(name, "_bucket") {
			le, ok := labels["le"]
			if !ok {
				return nil, fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
			// Cumulative monotonicity holds per bucket series — one
			// family can carry many label sets (e.g. per-phase), each
			// with its own le ladder.
			series := family + "|" + seriesKey(labels)
			cum := int64(value)
			if cum < lastCum[series] {
				return nil, fmt.Errorf("line %d: bucket counts not cumulative for %s (le=%s: %d after %d)",
					lineNo, family, le, cum, lastCum[series])
			}
			lastCum[series] = cum
			if le == "+Inf" {
				f.SawInf = true
				f.HistogramCount += cum
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, f := range fams {
		if f.Type == "histogram" && f.Samples > 0 && !f.SawInf {
			return nil, fmt.Errorf("histogram %s has samples but no +Inf bucket", name)
		}
	}
	return fams, nil
}

// seriesKey renders a sample's labels (minus le) as a stable key, so
// bucket ladders of different label sets are validated independently.
func seriesKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

// parseSample splits one `name{labels} value` line.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		for _, pair := range splitLabels(line[i+1 : end]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			val, uerr := strconv.Unquote(strings.TrimSpace(pair[eq+1:]))
			if uerr != nil {
				return "", nil, 0, fmt.Errorf("label value not quoted in %q", pair)
			}
			labels[strings.TrimSpace(pair[:eq])] = val
		}
		rest = line[end+1:]
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample line %q has no value", line)
		}
		name = line[:sp]
		rest = line[sp:]
	}
	if name == "" || strings.ContainsAny(name, " \t") {
		return "", nil, 0, fmt.Errorf("malformed metric name in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", nil, 0, fmt.Errorf("sample line %q has %d trailing fields", line, len(fields))
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("value %q does not parse: %v", fields[0], err)
	}
	return name, labels, value, nil
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}
