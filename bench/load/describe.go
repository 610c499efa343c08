package load

import "encoding/json"

// RunSeconds is the length of the measured phases the benchmark is
// sized and checked for.
const RunSeconds = 8

// Describe renders BENCHMARK.json from the metric and workload tables,
// so the file at the repository root cannot drift from what the
// commands report (a test compares them).
func Describe() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type bounded struct {
		layer
		Bound float64 `json:"bound"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{layer{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range PerLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}
