package main

// Compare mode: judge one result file against another by the bounds in
// BENCHMARK.json, one row per (workload, end-to-end metric). A row whose
// run-to-run spread is wider than what its bound allows is unresolved, not
// unchanged, unless every run of one side beats every run of the other.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// verdicts of one row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// comparable refuses pairs of files that did not measure the same thing:
// another kernel, another scheduler width, or other seeds.
func comparable(older, newer *resultSet) error {
	if older.Env.Kernel != newer.Env.Kernel || older.Env.Int8Kernel != newer.Env.Int8Kernel {
		return fmt.Errorf("kernels differ: %s/%s vs %s/%s", older.Env.Kernel, older.Env.Int8Kernel, newer.Env.Kernel, newer.Env.Int8Kernel)
	}
	if older.Env.GOMAXPROCS != newer.Env.GOMAXPROCS {
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", older.Env.GOMAXPROCS, newer.Env.GOMAXPROCS)
	}
	seeds := func(rs *resultSet) string {
		var keys []string
		for _, r := range rs.Runs {
			if !r.Traced {
				keys = append(keys, fmt.Sprintf("%s#%d@%gs", r.Workload, r.Seed, r.Seconds))
			}
		}
		sort.Strings(keys)
		return fmt.Sprint(keys)
	}
	if a, b := seeds(older), seeds(newer); a != b {
		return fmt.Errorf("the files hold different workloads, seeds or run lengths:\n  old %s\n  new %s", a, b)
	}
	return nil
}

// validRuns drops runs whose load generator misbehaved.
func validRuns(runs []*result) (valid []*result, dropped int) {
	for _, r := range runs {
		if r.Valid {
			valid = append(valid, r)
		} else {
			dropped++
		}
	}
	return valid, dropped
}

// separated reports whether every value of a is better than every value of
// b, for a metric where lower (or higher) is better.
func separated(a, b []float64, lowerBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if lowerBetter {
		return sa[len(sa)-1] < sb[0]
	}
	return sa[0] > sb[len(sb)-1]
}

// change is how much worse the newer side's median is than the older's, in
// the metric's own unit (negative: better), and the larger of the two sides'
// interquartile distances, in the same unit.
func change(m specMetric, older, newer []float64) (worse, spread float64) {
	worse = median(newer) - median(older)
	if m.Better != "lower" {
		worse = -worse
	}
	oq1, oq3 := quartiles(older)
	nq1, nq3 := quartiles(newer)
	return worse, max(oq3-oq1, nq3-nq1)
}

// judgeRow applies one end-to-end metric's bound to the two sides' values.
// allowed is the bound's share of the older median or the metric's absolute
// floor, whichever is larger, so a metric whose older median is 0 is judged
// by its floor alone.
func judgeRow(m specMetric, older, newer []float64) (worse, spread, allowed float64, verdict string) {
	lower := m.Better == "lower"
	worse, spread = change(m, older, newer)
	allowed = max(m.Bound*math.Abs(median(older)), absoluteFloor[m.Name])
	switch {
	case spread > allowed && separated(newer, older, lower):
		verdict = verdictBetter
	case spread > allowed && !(worse > allowed && separated(older, newer, lower)):
		verdict = verdictUnresolved
	case worse > allowed:
		verdict = verdictRegression
	case worse < -allowed:
		verdict = verdictBetter
	default:
		verdict = verdictOK
	}
	return worse, spread, allowed, verdict
}

// share is x as a percentage of the older median, for the printout; 0 when
// there is nothing to take a share of.
func share(x float64, older []float64) float64 {
	if mo := math.Abs(median(older)); mo > 0 {
		return 100 * x / mo
	}
	return 0
}

// compareFiles prints the comparison and returns an error when any row
// regressed.
func compareFiles(w io.Writer, sp *spec, oldPath, newPath string) error {
	older, err := readResultSet(oldPath)
	if err != nil {
		return err
	}
	newer, err := readResultSet(newPath)
	if err != nil {
		return err
	}
	if err := comparable(older, newer); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "old: %s (commit %s)   new: %s (commit %s)\n", oldPath, older.Env.Commit, newPath, newer.Env.Commit)
	regressions := 0
	for _, wl := range sp.Workloads {
		oruns, odrop := validRuns(older.runsOf(wl.Name))
		nruns, ndrop := validRuns(newer.runsOf(wl.Name))
		if len(oruns) == 0 || len(nruns) == 0 {
			continue
		}
		fmt.Fprintf(&out, "%s  (%d vs %d runs", wl.Name, len(oruns), len(nruns))
		if odrop+ndrop > 0 {
			fmt.Fprintf(&out, "; %d + %d invalid runs left out", odrop, ndrop)
		}
		fmt.Fprintf(&out, "; outputs %s)\n", digestNote(oruns, nruns))
		const row = "  %-20s %12.4f -> %12.4f %-6s worse by %+10.4f (%+6.1f%%)  spread %10.4f (%5.1f%%)  "
		for _, m := range sp.EndToEnd {
			ov, nv := values(oruns, m.Name), values(nruns, m.Name)
			worse, spread, allowed, verdict := judgeRow(m, ov, nv)
			if verdict == verdictRegression {
				regressions++
			}
			fmt.Fprintf(&out, row+"allowed %10.4f  %s\n", m.Name, median(ov), median(nv), m.Unit,
				worse, share(worse, ov), spread, share(spread, ov), allowed, verdict)
		}
		// The speed metrics carry no bound (bench/README.md, "Noise"): they
		// are listed so a reader sees them, and judged by the paired protocol.
		for _, m := range sp.speedMetrics() {
			ov, nv := values(oruns, m.Name), values(nruns, m.Name)
			worse, spread := change(m, ov, nv)
			fmt.Fprintf(&out, row+"ungated\n", m.Name, median(ov), median(nv), m.Unit,
				worse, share(worse, ov), spread, share(spread, ov))
		}
	}
	if _, err := io.WriteString(w, out.String()); err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds in BENCHMARK.json", regressions)
	}
	return nil
}

// digestNote says whether the two sides produced the same outputs, seed by
// seed: arithmetic that changed is not a failure, but a reviewer must see it.
func digestNote(older, newer []*result) string {
	bySeed := map[int64]string{}
	for _, r := range older {
		bySeed[r.Seed] = r.Digest
	}
	same, changed := 0, 0
	for _, r := range newer {
		switch d, ok := bySeed[r.Seed]; {
		case !ok:
		case d == r.Digest:
			same++
		default:
			changed++
		}
	}
	if changed == 0 {
		return "identical"
	}
	return fmt.Sprintf("CHANGED on %d of %d seeds", changed, same+changed)
}
