package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"bicriteria/internal/moldable"
)

// The encoding/json implementation of both file formats, kept as the
// oracle of io.go's codec: the codec must write the same bytes, and
// whatever it reads this must read to the same values. It reads more:
// encoding/json forgives what the codec refuses (see io.go).

type oracleInstance struct {
	Version int          `json:"version"`
	M       int          `json:"processors"`
	Tasks   []oracleTask `json:"tasks"`
}

type oracleTask struct {
	ID     int       `json:"id"`
	Name   string    `json:"name,omitempty"`
	Weight float64   `json:"weight"`
	Times  []float64 `json:"times"`
}

type oracleArrivals struct {
	Version  int             `json:"version"`
	M        int             `json:"processors"`
	Arrivals []oracleArrival `json:"arrivals"`
}

type oracleArrival struct {
	Submit float64 `json:"submit"`
	oracleTask
}

func oracleWriteInstance(w io.Writer, inst *moldable.Instance) error {
	ff := oracleInstance{Version: formatVersion, M: inst.M, Tasks: make([]oracleTask, len(inst.Tasks))}
	for i, t := range inst.Tasks {
		ff.Tasks[i] = oracleTask{ID: t.ID, Name: t.Name, Weight: t.Weight, Times: t.Times}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ff)
}

func oracleReadInstance(r io.Reader) (*moldable.Instance, error) {
	var ff oracleInstance
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
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

func oracleWriteArrivals(w io.Writer, m int, arrivals []Arrival) error {
	ff := oracleArrivals{Version: arrivalsVersion, M: m, Arrivals: make([]oracleArrival, len(arrivals))}
	for i, a := range arrivals {
		t := a.Task
		ff.Arrivals[i] = oracleArrival{
			Submit:     a.Submit,
			oracleTask: oracleTask{ID: t.ID, Name: t.Name, Weight: t.Weight, Times: t.Times},
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ff)
}

func oracleReadArrivals(r io.Reader) ([]Arrival, int, error) {
	var ff oracleArrivals
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
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
