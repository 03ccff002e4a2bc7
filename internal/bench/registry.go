package bench

import (
	"fmt"
	"sort"

	"tkdc/internal/dataset"
)

// Experiment is a named, runnable reproduction of one paper table/figure.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) ([]Table, error)
}

// Experiments returns the registry of all reproducible tables and
// figures, sorted by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{"tab2", "Table 2: algorithm roster", Table2},
		{"tab3", "Table 3: dataset roster", Table3},
		{"fig7", "Figure 7: end-to-end throughput across datasets and algorithms", Figure7},
		{"fig8", "Figure 8: classification accuracy (F1) vs exact KDE ground truth", Figure8},
		{"fig9", "Figure 9: query throughput vs dataset size (gauss, d=2)", Figure9},
		{"fig10", "Figure 10: query throughput vs dataset size (hep, d=27)", Figure10},
		{"fig11", "Figure 11: throughput vs dimensionality (hep)", Figure11},
		{"fig12", "Figure 12: cumulative factor analysis of tKDC optimizations", Figure12},
		{"fig13", "Figure 13: rkde throughput vs radius cutoff", Figure13},
		{"fig14", "Figure 14: throughput vs dimensionality (mnist, PCA-reduced)", Figure14},
		{"fig15", "Figure 15: throughput vs quantile threshold p", Figure15},
		{"fig16", "Figure 16: lesion analysis of tKDC optimizations", Figure16},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Run executes the experiment with the given ID ("all" runs everything in
// registry order), printing each table to opts.Out.
func Run(id string, opts Options) ([]Table, error) {
	opts = opts.normalized()
	if id == "all" {
		var all []Table
		for _, e := range Experiments() {
			tables, err := e.Run(opts)
			if err != nil {
				return all, fmt.Errorf("bench: %s: %w", e.ID, err)
			}
			all = append(all, tables...)
		}
		return all, nil
	}
	for _, e := range Experiments() {
		if e.ID == id {
			tables, err := e.Run(opts)
			if err != nil {
				return tables, fmt.Errorf("bench: %s: %w", e.ID, err)
			}
			return tables, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (try: tab2, tab3, fig7..fig16, all)", id)
}

// Table2 renders the algorithm roster.
func Table2(opts Options) ([]Table, error) {
	opts = opts.normalized()
	t := Table{
		Title:   "Table 2: Algorithms used in evaluation",
		Columns: []string{"Name", "Description"},
	}
	t.AddRow("tkdc", "density classification with threshold+tolerance pruning (this work)")
	t.AddRow("simple", "naive algorithm, iterates through every point")
	t.AddRow("nocut", "tKDC with threshold rule and grid disabled (emulates scikit-learn's k-d tree KDE)")
	t.AddRow("rkde", "contribution from only nearby points via range query")
	t.AddRow("binned", "linear binning approximation (emulates the R ks package, d<=4)")
	t.Fprint(opts.Out)
	return []Table{t}, nil
}

// Table3 renders the dataset roster with the shapes this run would use.
func Table3(opts Options) ([]Table, error) {
	opts = opts.normalized()
	t := Table{
		Title:   "Table 3: Datasets used in evaluation (synthetic stand-ins)",
		Columns: []string{"Name", "d", "paper n", "scaled n", "Description"},
	}
	for _, info := range dataset.Catalog() {
		d := info.Dim
		dStr := fmt.Sprintf("%d", d)
		if d == 0 {
			dStr = "any"
		}
		t.AddRow(info.Name, dStr,
			fmt.Sprintf("%d", info.DefaultN),
			fmt.Sprintf("%d", opts.scaled(info.DefaultN, 1000)),
			info.Description)
	}
	t.Fprint(opts.Out)
	return []Table{t}, nil
}
