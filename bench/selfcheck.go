package main

import "fmt"

// worseBy is how much worse b reads than a, as a share of a, in the metric's
// own direction: positive means b is worse.
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	d := (b - a) / a
	if def.Better == higher {
		d = -d
	}
	return d
}

// runSelfcheck runs the untraced suite twice on the same build and compares
// every end-to-end metric of the two sets against its regression bound, in
// both directions: two runs of one program that disagree by more than the
// bound mean the bound cannot gate anything. The two runs of a workload are
// made one after the other, not a whole suite apart, so that the machine's
// slow and fast periods fall on both. It then runs the next seed once
// and requires every output check to pass there too (no metric is compared
// across seeds).
func runSelfcheck(names []string, cfg runConfig) int {
	sets := [2]map[string]*result{{}, {}}
	pass := true
	for _, name := range names {
		for i := range sets {
			res, ok := runChild(name, cfg, false)
			if res == nil {
				return 1
			}
			pass = pass && ok
			sets[i][name] = res
		}
	}
	fmt.Printf("\n%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		for _, def := range endToEnd {
			if !def.definedFor(name) {
				continue
			}
			a, _ := sets[0][name].get(def.Name)
			b, _ := sets[1][name].get(def.Name)
			d := worseBy(def, a, b)
			verdict := "ok"
			if d > def.Bound || -d > def.Bound {
				verdict = "EXCEEDS"
				pass = false
			}
			fmt.Printf("%-16s %-14s %14s %14s %+8.2f%% %6.1f%% %s\n",
				name, def.Name, formatValue(a), formatValue(b), 100*d, 100*def.Bound, verdict)
		}
	}
	other := cfg
	other.seed++
	fmt.Printf("\nseed %d: output checks only\n", other.seed)
	for _, name := range names {
		if _, ok := runChild(name, other, false); !ok {
			pass = false
		}
	}
	if !pass {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}
