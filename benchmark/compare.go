package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The regression gate. A history file holds one line per run; a side of the
// comparison is every untraced run in one file, grouped by workload. Each
// end-to-end metric's bound is applied to the medians, per workload; a
// combined score is never computed. The time-based figures are compared the
// same way against their advisory bound, but a breach there is printed, not
// returned: they are too noisy on a shared box to reject a change alone.

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictBreach     verdict = "BREACH"
	verdictUnresolved verdict = "unresolved"
)

// compareRow is one (workload, metric) pairing.
type compareRow struct {
	Metric           string
	A, B             float64 // medians
	SpreadA, SpreadB float64 // quartile distance ÷ median, per side
	Ratio            float64 // B ÷ A
	Worse            float64 // share of A by which B is worse (negative: better)
	Verdict          verdict
}

// judge applies one metric's bound to the two sides' runs. A pair whose own
// spread exceeds the bound cannot show a change of that size, so it is
// unresolved rather than passed — unless every run of B reads better than
// every run of A.
func judge(m metricSpec, a, b []float64) compareRow {
	row := compareRow{
		Metric: m.Name,
		A:      median(a), B: median(b),
		SpreadA: spread(a), SpreadB: spread(b),
	}
	if row.A != 0 {
		row.Ratio = row.B / row.A
		row.Worse = (row.B - row.A) / row.A
		if m.Better == "higher" {
			row.Worse = -row.Worse
		}
	}
	switch {
	case (row.SpreadA > m.Bound || row.SpreadB > m.Bound) && !allBetter(m, a, b):
		row.Verdict = verdictUnresolved
	case row.Worse > m.Bound:
		row.Verdict = verdictBreach
	default:
		row.Verdict = verdictOK
	}
	return row
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(m metricSpec, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// loadRuns reads a history file's untraced runs: workload → metric → values.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], v)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints one row per (workload, metric) with both medians and
// the ratio with its base, and returns the exit code: 1 on any breach.
func compareFiles(pathA, pathB string, out io.Writer) int {
	a, err := loadRuns(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no untraced runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(out, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(out, "%-16s %-19s %5s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "runs", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	exit := 0
	for _, w := range workloadSpecs {
		for i, m := range append(append([]metricSpec{}, endToEndSpecs...), timeSpecs...) {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := judge(m, va, vb)
			gated := i < len(endToEndSpecs)
			note := ""
			if !gated {
				note = " (not gated)"
			}
			fmt.Fprintf(out, "%-16s %-19s %2d/%-2d %12.4f %12.4f %8.4f %7.2f%% %7.2f%% %6.1f%%  %s%s\n",
				w.Name, m.Name, len(va), len(vb), row.A, row.B, row.Ratio,
				100*row.SpreadA, 100*row.SpreadB, 100*m.Bound, row.Verdict, note)
			if gated && row.Verdict == verdictBreach {
				exit = 1
			}
		}
	}
	return exit
}
