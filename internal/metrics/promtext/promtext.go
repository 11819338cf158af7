// Package promtext checks pages in the Prometheus text exposition format.
// Only tests import it (the /metrics tests of the metrics registry, the
// serving tier and the fleet router), so no binary links it. It keeps its
// own copy of the name grammar: the checker does not share the code of
// the registry it checks.
package promtext

import "regexp"

// metricNameRe is the Prometheus metric-name grammar; label keys share it
// minus the colon.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelKeyRe   = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)
