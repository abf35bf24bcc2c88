package dsps

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Serialisation: systems and assignments round-trip through JSON so that
// plans can be stored, inspected, shipped to hosts, or validated offline
// (cmd/sqpr-plan prints them; a management layer would distribute them).

// systemJSON is the wire form of a System.
type systemJSON struct {
	Hosts     []Host         `json:"hosts"`
	Streams   []Stream       `json:"streams"`
	Operators []Operator     `json:"operators"`
	LinkCap   [][]float64    `json:"link_capacity"`
	Bases     []baseJSON     `json:"base_placements"`
	Version   int            `json:"version"`
	Extra     map[string]any `json:"extra,omitempty"`
}

type baseJSON struct {
	Host   HostID   `json:"host"`
	Stream StreamID `json:"stream"`
}

const wireVersion = 1

// MarshalJSON implements json.Marshaler for System.
func (sys *System) MarshalJSON() ([]byte, error) {
	out := systemJSON{
		Hosts:     sys.Hosts,
		Streams:   sys.Streams,
		Operators: sys.Operators,
		LinkCap:   sys.LinkCap,
		Version:   wireVersion,
	}
	for h := range sys.Hosts {
		for s := range sys.Streams {
			if sys.IsBaseAt(HostID(h), StreamID(s)) {
				out.Bases = append(out.Bases, baseJSON{HostID(h), StreamID(s)})
			}
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for System.
func (sys *System) UnmarshalJSON(data []byte) error {
	var in systemJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("dsps: decoding system: %w", err)
	}
	if in.Version != wireVersion {
		return fmt.Errorf("dsps: unsupported system version %d", in.Version)
	}
	rebuilt := NewSystem(in.Hosts, 0)
	rebuilt.LinkCap = in.LinkCap
	rebuilt.Streams = in.Streams
	rebuilt.Operators = in.Operators
	for i := range rebuilt.Operators {
		op := &rebuilt.Operators[i]
		rebuilt.producersOf[op.Output] = append(rebuilt.producersOf[op.Output], op.ID)
	}
	for _, b := range in.Bases {
		if int(b.Host) < 0 || int(b.Host) >= len(rebuilt.Hosts) {
			return fmt.Errorf("dsps: base placement host %d out of range", b.Host)
		}
		if int(b.Stream) < 0 || int(b.Stream) >= len(rebuilt.Streams) {
			return fmt.Errorf("dsps: base placement stream %d out of range", b.Stream)
		}
		rebuilt.PlaceBase(b.Host, b.Stream)
	}
	*sys = *rebuilt
	return sys.Validate()
}

// WriteSystem encodes the system as indented JSON to w.
func WriteSystem(w io.Writer, sys *System) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sys)
}

// ReadSystem decodes a system written by WriteSystem.
func ReadSystem(r io.Reader) (*System, error) {
	var sys System
	if err := json.NewDecoder(r).Decode(&sys); err != nil {
		return nil, err
	}
	return &sys, nil
}

// assignmentJSON is the wire form of an Assignment.
type assignmentJSON struct {
	Provides []provideJSON `json:"provides"`
	Flows    []Flow        `json:"flows"`
	Ops      []Placement   `json:"placements"`
	Version  int           `json:"version"`
}

type provideJSON struct {
	Stream StreamID `json:"stream"`
	Host   HostID   `json:"host"`
}

// MarshalJSON implements json.Marshaler for Assignment with deterministic
// ordering (sorted flows/placements).
func (a *Assignment) MarshalJSON() ([]byte, error) {
	out := assignmentJSON{Version: wireVersion}
	for _, f := range a.SortedFlows() {
		out.Flows = append(out.Flows, f)
	}
	out.Ops = a.SortedOps()
	// Provides sorted by stream for determinism.
	streams := make([]StreamID, 0, len(a.Provides))
	for s := range a.Provides {
		streams = append(streams, s)
	}
	slices.Sort(streams)
	for _, s := range streams {
		out.Provides = append(out.Provides, provideJSON{s, a.Provides[s]})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Assignment.
func (a *Assignment) UnmarshalJSON(data []byte) error {
	var in assignmentJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("dsps: decoding assignment: %w", err)
	}
	if in.Version != wireVersion {
		return fmt.Errorf("dsps: unsupported assignment version %d", in.Version)
	}
	fresh := NewAssignment()
	for _, p := range in.Provides {
		if prev, dup := fresh.Provides[p.Stream]; dup {
			return fmt.Errorf("dsps: stream %d provided twice (hosts %d, %d)", p.Stream, prev, p.Host)
		}
		fresh.Provides[p.Stream] = p.Host
	}
	for _, f := range in.Flows {
		fresh.Flows[f] = true
	}
	for _, pl := range in.Ops {
		fresh.Ops[pl] = true
	}
	*a = *fresh
	return nil
}

// WriteAssignment encodes the assignment as indented JSON.
func WriteAssignment(w io.Writer, a *Assignment) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ReadAssignment decodes an assignment written by WriteAssignment.
func ReadAssignment(r io.Reader) (*Assignment, error) {
	var a Assignment
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, err
	}
	return &a, nil
}
