package workload

import (
	"fmt"
	"io"
	"os"

	"bicriteria/internal/moldable"
)

// Two file formats share one codec written for their schema:
//
//	instance: {"version": 1, "processors": m, "tasks": [task, ...]}
//	arrivals: {"version": 1, "processors": m, "arrivals": [arrival, ...]}
//	task:     {"id": int, "name": string, "weight": float, "times": [float, ...]}
//	arrival:  a task with a leading "submit": float
//
// An arrival stream is an SWF-style trace (every job carries its
// submission time) kept moldable: the full processing-time vector
// survives, which plain SWF records cannot express. Generated streams
// round-trip through it, so one stream feeds the replay CLIs and the live
// load generator alike. Its "processors" records the machine size the
// stream was generated for (informational: smaller clusters truncate the
// time vectors further).
//
// The writer emits exactly the bytes of encoding/json's Encoder with
// SetIndent("", "  ") over the equivalent structs: members in the order
// above, "name" left out when empty, floats spelled as encoding/json
// spells them, strings with its HTML-safe escapes, and a trailing newline.
//
// The reader accepts only that grammar, in any member order, with any
// member left out, with JSON white space, number and string spellings,
// and reads it into the values encoding/json would, bit for bit. It
// refuses unknown, escaped, case-folded and repeated member names,
// invalid UTF-8, null anywhere but a task's "times" (the writer's nil
// vector), and anything but white space after the document. Int fields
// take only integer literals; a float is strconv.ParseFloat's value of
// the number's bytes, in float64 range.
//
// Malformed input fails with "cannot decode", the member path and the
// byte offset (codec.go). The version, task and order checks that follow
// a decode keep their texts. oracle_test.go keeps the encoding/json
// implementation; the fuzz targets hold the writer to its bytes and the
// reader to its values wherever the reader accepts.

const (
	formatVersion   = 1
	arrivalsVersion = 1
)

// WriteInstance serializes an instance as JSON.
func WriteInstance(w io.Writer, inst *moldable.Instance) error {
	for i := range inst.Tasks {
		if err := checkFinite(nil, &inst.Tasks[i]); err != nil {
			return err
		}
	}
	e := encoder{w: w}
	e.open(formatVersion, inst.M, "tasks")
	for i := range inst.Tasks {
		e.task(i, nil, &inst.Tasks[i])
	}
	return e.close(len(inst.Tasks))
}

// readInstance parses an instance previously written by WriteInstance and
// validates it. Time vectors longer than the machine are truncated to it,
// as moldable.NewInstance does.
func readInstance(data []byte) (*moldable.Instance, error) {
	var version, m int
	var tasks, scratch []moldable.Task
	d := decoder{data: data}
	err := d.document(instanceKeys, func(i int) (err error) {
		switch i {
		case 0:
			return d.int(&version)
		case 1:
			return d.int(&m)
		}
		tasks, err = decodeArray(&d, &scratch, func(t *moldable.Task) error { return d.task(t, nil) })
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("workload: cannot decode instance: %w", err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("workload: unsupported format version %d (want %d)", version, formatVersion)
	}
	if m >= 1 {
		for i := range tasks {
			if len(tasks[i].Times) > m {
				tasks[i].Times = tasks[i].Times[:m]
			}
		}
	}
	inst := &moldable.Instance{M: m, Tasks: tasks}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// writeArrivals serializes an arrival stream as JSON. M records the
// machine size the stream was generated for.
func writeArrivals(w io.Writer, m int, arrivals []Arrival) error {
	for i := range arrivals {
		if err := checkFinite(&arrivals[i].Submit, &arrivals[i].Task); err != nil {
			return err
		}
	}
	e := encoder{w: w}
	e.open(arrivalsVersion, m, "arrivals")
	for i := range arrivals {
		e.task(i, &arrivals[i].Submit, &arrivals[i].Task)
	}
	return e.close(len(arrivals))
}

// readArrivals parses a stream previously written by writeArrivals and
// validates it: every task must be well-formed and the submission times
// non-negative and non-decreasing. It returns the stream and the recorded
// machine size.
func readArrivals(data []byte) ([]Arrival, int, error) {
	var version, m int
	var arrivals, scratch []Arrival
	d := decoder{data: data}
	err := d.document(arrivalsKeys, func(i int) (err error) {
		switch i {
		case 0:
			return d.int(&version)
		case 1:
			return d.int(&m)
		}
		arrivals, err = decodeArray(&d, &scratch, func(a *Arrival) error { return d.task(&a.Task, &a.Submit) })
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("workload: cannot decode arrivals: %w", err)
	}
	if version != arrivalsVersion {
		return nil, 0, fmt.Errorf("workload: unsupported arrivals format version %d (want %d)", version, arrivalsVersion)
	}
	last := 0.0
	for i := range arrivals {
		a := &arrivals[i]
		if err := a.Task.Validate(); err != nil {
			return nil, 0, fmt.Errorf("workload: arrival %d: %w", i, err)
		}
		if a.Submit < 0 {
			return nil, 0, fmt.Errorf("workload: arrival %d has negative submission time %g", i, a.Submit)
		}
		if a.Submit < last {
			return nil, 0, fmt.Errorf("workload: arrival %d breaks submission order (%g after %g)", i, a.Submit, last)
		}
		last = a.Submit
	}
	if arrivals == nil {
		arrivals = []Arrival{}
	}
	return arrivals, m, nil
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return readArrivals(data)
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readInstance(data)
}
