package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"text/tabwriter"
)

// compareCmd compares sets of runs. Each argument is one side, a
// comma-separated list of -json result files; the first side is the base
// and each later one is compared against it. For every workload and metric
// it prints each side's median and quartiles and a verdict.
func compareCmd(args []string, w io.Writer) error {
	if len(args) < 2 {
		return errors.New("-compare needs a base side and at least one side to compare with it")
	}
	sides := make([]map[string][]*result, len(args))
	for i, arg := range args {
		sides[i] = map[string][]*result{}
		for _, path := range strings.Split(arg, ",") {
			runs, err := readResults(path)
			if err != nil {
				return err
			}
			for _, r := range runs {
				sides[i][r.Workload] = append(sides[i][r.Workload], r)
			}
		}
		// Runs pair by seed when both sides used the same seeds.
		for _, runs := range sides[i] {
			slices.SortStableFunc(runs, func(a, b *result) int { return cmp.Compare(a.Seed, b.Seed) })
		}
	}
	for i, side := range sides[1:] {
		fmt.Fprintf(w, "== base %s vs %s\n", args[0], args[i+1])
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\tchange\tverdict")
		for _, wl := range workloadNames(sides[0], side) {
			base, change := sides[0][wl], side[wl]
			if len(base) == 0 || len(change) == 0 {
				fmt.Fprintf(tw, "%s\t(runs: base %d, change %d)\t\t\t\t\t-\n", wl, len(base), len(change))
				continue
			}
			for _, r := range slices.Concat(base, change) {
				if !r.Correct {
					fmt.Fprintf(tw, "%s\tseed %d failed its checks: %s\t\t\t\t\t-\n", wl, r.Seed, strings.Join(r.Failures, "; "))
				}
			}
			for _, d := range slices.Concat(endToEnd, perLayer) {
				bv, cv := values(base, d.Name), values(change, d.Name)
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				bm, cm := median(bv), median(cv)
				b1, b3 := quartiles(bv)
				c1, c3 := quartiles(cv)
				rel := "-"
				if bm != 0 {
					rel = fmt.Sprintf("%+.2f%%", 100*(cm-bm)/math.Abs(bm))
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%s\n",
					wl, d.Name, d.Unit, bm, b1, b3, cm, c1, c3, rel, verdict(d, bv, cv))
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// workloadNames lists the workloads present on either side, benchmark
// workloads first in their table order.
func workloadNames(a, b map[string][]*result) []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var extra []string
	for _, side := range []map[string][]*result{a, b} {
		for n := range side {
			if !slices.Contains(names, n) && !slices.Contains(extra, n) {
				extra = append(extra, n)
			}
		}
	}
	slices.Sort(extra)
	var out []string
	for _, n := range append(names, extra...) {
		if len(a[n]) > 0 || len(b[n]) > 0 {
			out = append(out, n)
		}
	}
	return out
}

func values(runs []*result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict judges one metric of the change against the base, whose values
// pair by position, following the gate in README.md:
//   - improved: the change wins at least nine tenths of the pairs and its
//     median beats the base's by more than the base's quartile spread;
//   - unresolved: the base's quartile spread exceeds the bound, unless every
//     change run beats every base run;
//   - regressed: the change's median is worse than the base's by more than
//     the bound;
//   - unchanged otherwise.
//
// Spreads and bounds are shares of the base median; when that median is 0
// they apply to absolute values instead.
func verdict(d metricDef, base, change []float64) string {
	sign := 1.0 // how a positive difference counts: +1 when higher is better
	if d.Better == "lower" {
		sign = -1
	}
	bm, cm := median(base), median(change)
	q1, q3 := quartiles(base)
	scale := math.Abs(bm)
	if scale == 0 {
		scale = 1
	}
	gain := sign * (cm - bm)
	pairs, wins := min(len(base), len(change)), 0
	for i := range pairs {
		if sign*(change[i]-base[i]) > 0 {
			wins++
		}
	}
	allBetter := sign > 0 && slices.Min(change) > slices.Max(base) ||
		sign < 0 && slices.Max(change) < slices.Min(base)
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && gain > 0 && gain > q3-q1:
		return "improved"
	case (q3-q1)/scale > d.Bound:
		if allBetter {
			return "unchanged"
		}
		return "unresolved"
	case -gain > d.Bound*scale:
		return "regressed"
	}
	return "unchanged"
}
