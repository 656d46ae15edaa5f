package main

import (
	"fmt"
	"sort"

	"dblayout/internal/layout"
)

// printLayout prints the hottest `top` objects' placements.
func printLayout(inst *layout.Instance, l *layout.Layout, top int) {
	order := make([]int, inst.N())
	for i := range order {
		order[i] = i
	}
	ws := inst.Workloads.Workloads
	sort.SliceStable(order, func(a, b int) bool {
		return ws[order[a]].TotalRate() > ws[order[b]].TotalRate()
	})
	if top < len(order) {
		order = order[:top]
	}
	fmt.Printf("%-18s", "Object")
	for _, t := range inst.Targets {
		fmt.Printf(" %9s", t.Name)
	}
	fmt.Println()
	for _, i := range order {
		fmt.Printf("%-18s", inst.Objects[i].Name)
		for j := 0; j < l.M; j++ {
			if v := l.At(i, j); v > layout.Epsilon {
				fmt.Printf(" %8.1f%%", 100*v)
			} else {
				fmt.Printf(" %9s", ".")
			}
		}
		fmt.Println()
	}
}
