package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"bicriteria/internal/moldable"
)

// fileFormat is the on-disk JSON representation of an instance. It is kept
// separate from the in-memory types so that the public model can evolve
// without breaking stored workloads.
type fileFormat struct {
	// Version of the format, currently 1.
	Version int        `json:"version"`
	M       int        `json:"processors"`
	Tasks   []fileTask `json:"tasks"`
}

type fileTask struct {
	ID     int       `json:"id"`
	Name   string    `json:"name,omitempty"`
	Weight float64   `json:"weight"`
	Times  []float64 `json:"times"`
}

const formatVersion = 1

// WriteInstance serializes an instance as JSON.
func WriteInstance(w io.Writer, inst *moldable.Instance) error {
	ff := fileFormat{Version: formatVersion, M: inst.M, Tasks: make([]fileTask, len(inst.Tasks))}
	for i, t := range inst.Tasks {
		ff.Tasks[i] = fileTask{ID: t.ID, Name: t.Name, Weight: t.Weight, Times: t.Times}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ff)
}

// readInstance parses an instance previously written by WriteInstance and
// validates it.
func readInstance(r io.Reader) (*moldable.Instance, error) {
	var ff fileFormat
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ff); err != nil {
		return nil, fmt.Errorf("workload: cannot decode instance: %w", err)
	}
	if ff.Version != formatVersion {
		return nil, fmt.Errorf("workload: unsupported format version %d (want %d)", ff.Version, formatVersion)
	}
	tasks := make([]moldable.Task, len(ff.Tasks))
	for i, t := range ff.Tasks {
		tasks[i] = moldable.Task{ID: t.ID, Name: t.Name, Weight: t.Weight, Times: t.Times}
	}
	inst := moldable.NewInstance(ff.M, tasks)
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// arrivalsFormat is the on-disk JSON representation of an on-line job
// stream: an SWF-style trace (every job carries its submission time) kept
// moldable (the full processing-time vector survives, which plain SWF
// records cannot express). Generated streams round-trip through it so one
// stream can feed the replay CLIs and the live load generator alike.
type arrivalsFormat struct {
	// Version of the format, currently 1.
	Version int `json:"version"`
	// M is the machine size the tasks were generated for (informational:
	// time vectors may be truncated further by smaller clusters).
	M        int           `json:"processors"`
	Arrivals []fileArrival `json:"arrivals"`
}

type fileArrival struct {
	Submit float64 `json:"submit"`
	fileTask
}

const arrivalsVersion = 1

// writeArrivals serializes an arrival stream as JSON. M records the
// machine size the stream was generated for.
func writeArrivals(w io.Writer, m int, arrivals []Arrival) error {
	ff := arrivalsFormat{Version: arrivalsVersion, M: m, Arrivals: make([]fileArrival, len(arrivals))}
	for i, a := range arrivals {
		t := a.Task
		ff.Arrivals[i] = fileArrival{
			Submit:   a.Submit,
			fileTask: fileTask{ID: t.ID, Name: t.Name, Weight: t.Weight, Times: t.Times},
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ff)
}

// readArrivals parses a stream previously written by writeArrivals and
// validates it: every task must be well-formed and the submission times
// non-negative and non-decreasing. It returns the stream and the recorded
// machine size.
func readArrivals(r io.Reader) ([]Arrival, int, error) {
	var ff arrivalsFormat
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ff); err != nil {
		return nil, 0, fmt.Errorf("workload: cannot decode arrivals: %w", err)
	}
	if ff.Version != arrivalsVersion {
		return nil, 0, fmt.Errorf("workload: unsupported arrivals format version %d (want %d)", ff.Version, arrivalsVersion)
	}
	arrivals := make([]Arrival, len(ff.Arrivals))
	last := 0.0
	for i, a := range ff.Arrivals {
		task := moldable.Task{ID: a.ID, Name: a.Name, Weight: a.Weight, Times: a.Times}
		if err := task.Validate(); err != nil {
			return nil, 0, fmt.Errorf("workload: arrival %d: %w", i, err)
		}
		if a.Submit < 0 {
			return nil, 0, fmt.Errorf("workload: arrival %d has negative submission time %g", i, a.Submit)
		}
		if a.Submit < last {
			return nil, 0, fmt.Errorf("workload: arrival %d breaks submission order (%g after %g)", i, a.Submit, last)
		}
		last = a.Submit
		arrivals[i] = Arrival{Task: task, Submit: a.Submit}
	}
	return arrivals, ff.M, nil
}

// SaveArrivals writes an arrival stream to a file path.
func SaveArrivals(path string, m int, arrivals []Arrival) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := writeArrivals(f, m, arrivals); err != nil {
		return err
	}
	return f.Close()
}

// LoadArrivals reads an arrival stream from a file path.
func LoadArrivals(path string) ([]Arrival, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return readArrivals(f)
}

// SaveInstance writes an instance to a file path.
func SaveInstance(path string, inst *moldable.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteInstance(f, inst); err != nil {
		return err
	}
	return f.Close()
}

// LoadInstance reads an instance from a file path.
func LoadInstance(path string) (*moldable.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readInstance(f)
}
