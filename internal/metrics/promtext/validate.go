package promtext

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateText is a strict checker for the Prometheus text exposition
// format (version 0.0.4), used by the /metrics endpoint tests of the
// serving tier and the fleet router. It enforces what a real scraper
// needs:
//
//   - every sample line parses (name, optional label set, float value)
//   - every sample's family was announced by a preceding # TYPE line
//   - histogram families carry _bucket/_sum/_count series, bucket counts
//     are cumulative (non-decreasing in le order), the le label parses as
//     a float, the last bucket is +Inf, and the +Inf bucket equals _count
//   - counter values are non-negative
//
// It returns the first violation found, nil for a clean page.
func ValidateText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	types := make(map[string]string)
	type histState struct {
		lastLe    float64 // last le bound seen per label-set-less family (approximation: global order)
		lastCum   uint64
		sawInf    bool
		infCum    uint64
		count     uint64
		sawCount  bool
		anyBucket bool
	}
	hists := make(map[string]*histState) // keyed by family name + const labels
	lineNo := 0
	samples := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			switch fields[1] {
			case "HELP":
				// free text; nothing to check beyond the name
				if !metricNameRe.MatchString(fields[2]) {
					return fmt.Errorf("line %d: bad metric name in HELP: %q", lineNo, fields[2])
				}
			case "TYPE":
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE missing type: %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !metricNameRe.MatchString(name) {
					return fmt.Errorf("line %d: bad metric name in TYPE: %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = typ
			default:
				return fmt.Errorf("line %d: unknown comment keyword %q", lineNo, fields[1])
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		samples++
		family := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name && types[base] == "histogram" {
				family, suffix = base, sfx
				break
			}
		}
		typ, announced := types[family]
		if !announced {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		switch typ {
		case "counter":
			if value < 0 {
				return fmt.Errorf("line %d: counter %s is negative (%g)", lineNo, name, value)
			}
		case "histogram":
			key := family + "|" + labelsMinusLe(labels)
			st := hists[key]
			if st == nil {
				st = &histState{lastLe: math.Inf(-1)}
				hists[key] = st
			}
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: histogram bucket %s missing le label", lineNo, name)
				}
				bound, err := parseLe(le)
				if err != nil {
					return fmt.Errorf("line %d: %v", lineNo, err)
				}
				if bound <= st.lastLe {
					return fmt.Errorf("line %d: %s buckets out of order (le=%q after %g)", lineNo, family, le, st.lastLe)
				}
				cum := uint64(value)
				if float64(cum) != value || value < 0 {
					return fmt.Errorf("line %d: bucket count %g is not a non-negative integer", lineNo, value)
				}
				if cum < st.lastCum {
					return fmt.Errorf("line %d: %s bucket counts not cumulative (%d after %d)", lineNo, family, cum, st.lastCum)
				}
				st.lastLe, st.lastCum, st.anyBucket = bound, cum, true
				if math.IsInf(bound, 1) {
					st.sawInf, st.infCum = true, cum
				}
			case "_count":
				st.count = uint64(value)
				st.sawCount = true
			case "_sum":
				// any float is fine
			default:
				return fmt.Errorf("line %d: bare sample %q under histogram family %q", lineNo, name, family)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("metrics: page has no samples")
	}
	for key, st := range hists {
		family := key[:strings.IndexByte(key, '|')]
		if !st.anyBucket {
			return fmt.Errorf("metrics: histogram %s has no buckets", family)
		}
		if !st.sawInf {
			return fmt.Errorf("metrics: histogram %s missing +Inf bucket", family)
		}
		if !st.sawCount {
			return fmt.Errorf("metrics: histogram %s missing _count", family)
		}
		if st.infCum != st.count {
			return fmt.Errorf("metrics: histogram %s +Inf bucket %d != _count %d", family, st.infCum, st.count)
		}
	}
	return nil
}

// parseSample splits `name{k="v",...} value` into its parts.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = make(map[string]string)
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[brace+1:end], labels); err != nil {
			return "", nil, 0, fmt.Errorf("%v in %q", err, line)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample without value: %q", line)
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !metricNameRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	// A timestamp may follow the value; the registry never emits one, and
	// rejecting it keeps the checker strict about what WE produce.
	if strings.ContainsAny(rest, " \t") {
		return "", nil, 0, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	value, err = parseValue(rest)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", rest, err)
	}
	return name, labels, value, nil
}

// parseLabels parses `k="v",k2="v2"` (escapes: \\ \" \n).
func parseLabels(s string, out map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label without '='")
		}
		key := s[:eq]
		if !labelKeyRe.MatchString(key) {
			return fmt.Errorf("bad label key %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %s value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return fmt.Errorf("dangling escape in label %s", key)
				}
				i++
				switch s[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("bad escape \\%c in label %s", s[i], key)
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("unterminated value for label %s", key)
		}
		if _, dup := out[key]; dup {
			return fmt.Errorf("duplicate label %s", key)
		}
		out[key] = val.String()
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("expected ',' after label %s", key)
			}
			s = s[1:]
		}
	}
	return nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseLe(s string) (float64, error) {
	v, err := parseValue(s)
	if err != nil {
		return 0, fmt.Errorf("unparseable le bound %q", s)
	}
	return v, nil
}

// labelsMinusLe renders a label map without le, sorted, as a histogram
// series key.
func labelsMinusLe(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	if len(parts) == 0 {
		return ""
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
