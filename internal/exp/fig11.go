package exp

// Fig11Cell is one workload's IaaS comparison: four equal-share classes
// under work-conserving PABST versus a static quarter-bandwidth machine.
type Fig11Cell struct {
	Workload string

	SharedIPC   float64 // mean class IPC, 4x8 cores under PABST at 25% each
	StaticIPC   float64 // 8 cores isolated with DDR slowed 4x
	Improvement float64 // SharedIPC/StaticIPC - 1, in percent
}

func vmName(i int) string {
	return "vm-" + string(rune('a'+i))
}

// Fig11Table renders the IaaS comparison.
func Fig11Table(cells []Fig11Cell) *Table {
	t := &Table{
		Title:   "Figure 11: work-conserving fairness vs static 25% allocation (4 VMs x 8 CPUs)",
		Columns: []string{"shared-IPC", "static-IPC", "improve-%"},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, Row{
			Label: c.Workload,
			Values: map[string]float64{
				"shared-IPC": c.SharedIPC,
				"static-IPC": c.StaticIPC,
				"improve-%":  c.Improvement,
			},
		})
	}
	return t
}
