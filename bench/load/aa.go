package load

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Quartiles returns the first, second and third quartile of values the
// way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is how the benchmark's acceptance check computes them.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// worse is how much b is worse than a, as a share of a.
func worse(m Metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// AA runs two back-to-back sets of n runs of every workload on the
// code as it stands, each run on another seed, and prints for every
// end-to-end metric and workload both medians, both quartile spreads as
// a share of the median, how much worse the second median is than the
// first, and the bound.  A pairing passes when both spreads and the
// difference stay within the bound.  It reports whether all did and no
// run failed an operation or a validity guard.
func AA(o Options, n int, out io.Writer) (bool, error) {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	ok := true
	seed := o.Seed
	root := o.WorkDir
	for s := range sets {
		sets[s] = map[key][]float64{}
		for i := 0; i < n; i++ {
			for _, w := range Workloads {
				ro := o
				ro.Workload, ro.Seed, ro.Log = w.Name, seed, io.Discard
				ro.WorkDir = filepath.Join(root, fmt.Sprintf("aa-%d-%d-%s", s, i, w.Name))
				rep, err := Run(ro)
				os.RemoveAll(ro.WorkDir)
				if err != nil {
					return false, fmt.Errorf("set %d run %d of %s: %w", s+1, i+1, w.Name, err)
				}
				fmt.Fprintf(out, "set %d run %d %-11s seed=%d attempted=%d failed=%d invalid=%d\n",
					s+1, i+1, w.Name, seed, rep.Attempted, rep.Failed, len(rep.Invalid))
				if !rep.Correct() {
					ok = false
					fmt.Fprintf(out, "  first failure: %v; guards: %v\n", rep.FirstErr, rep.Invalid)
				}
				for _, m := range append(append([]Metric(nil), EndToEnd...), RunLayer...) {
					sets[s][key{w.Name, m.Name}] = append(sets[s][key{w.Name, m.Name}], rep.Values[m.Name])
				}
			}
			seed++
		}
	}
	fmt.Fprintf(out, "\n%-12s %-26s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound")
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			a1, a2, a3 := Quartiles(a)
			b1, b2, b3 := Quartiles(b)
			spreadA, spreadB, diff := per(a3-a1, a2), per(b3-b1, b2), worse(m, a2, b2)
			verdict := "PASS"
			if diff > m.Bound || spreadA > m.Bound || spreadB > m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(out, "%-12s %-26s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%% %s\n",
				w.Name, m.Name, a2, b2, 100*spreadA, 100*spreadB, 100*diff, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintln(out, "\nper-layer (no bound), median A / median B / iqr A:")
	for _, w := range Workloads {
		for _, m := range RunLayer {
			a1, a2, a3 := Quartiles(sets[0][key{w.Name, m.Name}])
			_, b2, _ := Quartiles(sets[1][key{w.Name, m.Name}])
			fmt.Fprintf(out, "%-12s %-30s %12.6g %12.6g %7.2f%%\n", w.Name, m.Name, a2, b2, 100*per(a3-a1, a2))
		}
	}
	return ok, nil
}
