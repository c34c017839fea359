package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"bicriteria/internal/validate"
)

// WriteScenario serializes the scenario as indented JSON, stamping the
// current format version when the spec carries none.
func WriteScenario(w io.Writer, s Scenario) error {
	s = s.Normalized()
	if err := s.validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// readScenario parses a scenario previously written by WriteScenario and
// validates it eagerly. Like the arrivals format, the version is checked
// — and unknown fields and bytes after the document are rejected
// outright, so a typoed knob fails loudly instead of silently running the
// default.
func readScenario(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: cannot decode scenario: %w", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("scenario: cannot decode scenario: data after the document, which ends at offset %d", end)
	}
	if s.Version != Version {
		return Scenario{}, validate.Errorf("version", "unsupported scenario version %d (want %d)", s.Version, Version)
	}
	// An empty reservation list is written as an absent one: read both as
	// nil, so a written scenario reads back deep-equal.
	for i := range s.Clusters {
		if len(s.Clusters[i].Reservations) == 0 {
			s.Clusters[i].Reservations = nil
		}
	}
	s = s.Normalized()
	if err := s.validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// SaveScenario writes the scenario to a file path.
func SaveScenario(path string, s Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteScenario(f, s); err != nil {
		return err
	}
	return f.Close()
}

// LoadScenario reads a scenario from a file path.
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	return readScenario(f)
}
