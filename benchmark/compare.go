package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictImproved   = "improved"
	verdictWithin     = "within-bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A for one metric. worse is the relative change
// of the median in the metric's bad direction. A change beyond the bound
// is a regression; within it, the pair is only "within-bound" if both
// sides' run-to-run spread (interquartile range over median) is itself
// inside the bound — otherwise the runs cannot tell, and the honest
// answer is unresolved rather than unchanged.
func verdict(m metricSpec, a, b []float64) (medA, medB, worse float64, v string) {
	a1, medA, a3 := quartiles(a)
	b1, medB, b3 := quartiles(b)
	worse = ratio(medB-medA, medA)
	if m.Better == "higher" {
		worse = -worse
	}
	spread := ratio(a3-a1, medA)
	if s := ratio(b3-b1, medB); s > spread {
		spread = s
	}
	switch {
	case worse > m.Bound:
		v = verdictRegressed
	case spread > m.Bound:
		v = verdictUnresolved
	case worse < -spread && worse < 0:
		v = verdictImproved
	default:
		v = verdictWithin
	}
	return medA, medB, worse, v
}

func readOutFile(path string) (*outFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// accuracyBound is the share by which a workload's max_abs_err may grow
// between two result files. The figure is deterministic, so any growth is
// the change's doing; a speed-up may not spend more accuracy than this.
const accuracyBound = 0.02

// sameInputs refuses to compare result files that were not measured the
// same way: a verdict between two window lengths, a smoke file and a full
// one, or different seeds or workload parameters means nothing.
func sameInputs(a, b *outFile) error {
	switch {
	case a.Seconds != b.Seconds:
		return fmt.Errorf("measured windows differ: %v s and %v s", a.Seconds, b.Seconds)
	case a.Smoke != b.Smoke:
		return fmt.Errorf("one file is a -smoke run, the other is not")
	case a.Seed != b.Seed || a.Repeat != b.Repeat:
		return fmt.Errorf("seeds differ: %d runs from seed %d, and %d runs from seed %d", a.Repeat, a.Seed, b.Repeat, b.Seed)
	case !reflect.DeepEqual(a.Params, b.Params):
		return fmt.Errorf("workload parameters differ (see params in both files)")
	}
	return nil
}

// maxAbsErr is the largest max_abs_err a workload's runs recorded (they
// all record the same one).
func maxAbsErr(runs []recordedRun, workload string) (worst float64, ok bool) {
	for _, r := range runs {
		if r.Workload == workload {
			worst, ok = max(worst, r.MaxAbsErr), true
		}
	}
	return worst, ok
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both files, and one for each workload's max_abs_err, and fails on
// any regression.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	fa, err := readOutFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readOutFile(pathB)
	if err != nil {
		return err
	}
	if err := sameInputs(fa, fb); err != nil {
		return fmt.Errorf("%s and %s cannot be compared: %w", pathA, pathB, err)
	}
	sa, sb := series(fa.Runs), series(fb.Runs)
	const row = "%-14s %-14s %12.5g %12.5g %+8.1f%% %5.0f%%  %s\n"
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := sa[wl.Name][m.Name], sb[wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			medA, medB, worse, v := verdict(m, a, b)
			fmt.Fprintf(w, row, wl.Name, m.Name, medA, medB, 100*worse, 100*m.Bound, v)
			if v == verdictRegressed {
				regressed++
			}
		}
		errA, okA := maxAbsErr(fa.Runs, wl.Name)
		errB, okB := maxAbsErr(fb.Runs, wl.Name)
		if !okA || !okB {
			continue
		}
		worse, v := ratio(errB-errA, errA), verdictWithin
		switch {
		case worse > accuracyBound:
			v = verdictRegressed
			regressed++
		case worse < 0:
			v = verdictImproved
		}
		fmt.Fprintf(w, row, wl.Name, "max_abs_err", errA, errB, 100*worse, 100*accuracyBound, v)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
