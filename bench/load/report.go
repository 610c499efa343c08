package load

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is the outcome of one run.
type Report struct {
	Env       Env
	InputHash uint64
	// Inputs is what the run fed netmarkd, for the traced run to replay.
	Inputs    *Inputs
	Attempted int
	Failed    int
	FirstErr  error
	// Values holds every metric the run measured, by name.
	Values map[string]float64
	// Samples is how many measurements stand behind a percentile.
	Samples map[string]int
	// Invalid lists the run-validity guards that tripped.  A run with
	// any is reported but must not be used: its exit status is non-zero.
	Invalid []string
}

// Correct reports that every operation's output checked out and no
// validity guard tripped.
func (r *Report) Correct() bool { return r.Failed == 0 && len(r.Invalid) == 0 }

// Print writes the human-readable report: environment, then every
// listed metric by name with its unit, then the guards.
func (r *Report) Print(w io.Writer, lists ...[]Metric) {
	fmt.Fprintf(w, "env: %s\n", r.Env)
	fmt.Fprintf(w, "inputs: hash=%016x\n", r.InputHash)
	for _, list := range lists {
		for _, m := range list {
			v, ok := r.Values[m.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("metric: %-34s %14.6g %-6s", m.Name, v, m.Unit)
			if m.Bound > 0 {
				line += fmt.Sprintf(" bound=%.2f", m.Bound)
			}
			if n, ok := r.Samples[m.Name]; ok {
				line += fmt.Sprintf(" samples=%d", n)
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", r.Attempted, r.Failed)
	if r.FirstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.FirstErr)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "INVALID: %s\n", why)
	}
	if len(r.Invalid) == 0 {
		fmt.Fprintln(w, "validity: all guards hold")
	}
}

// ResultLine is the machine-readable last line of output: exactly the
// listed metrics, each as measured.
func (r *Report) ResultLine(list []Metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		v, ok := r.Values[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, metrics})
	return string(out), err
}
