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
	rebuilt.baseHosts = make([][]HostID, len(in.Streams))
	rebuilt.producersOf = make([][]OperatorID, len(in.Streams))
	rebuilt.consumersOf = make([][]OperatorID, len(in.Streams))
	for i := range rebuilt.Operators {
		rebuilt.index(OperatorID(i))
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
	Provides []Provide   `json:"provides"`
	Flows    []Flow      `json:"flows"`
	Ops      []Placement `json:"placements"`
	Version  int         `json:"version"`
}

// MarshalJSON implements json.Marshaler for Assignment. The slices are
// already in wire order and go out as they are; only the empty forms are
// pinned, to the bytes every journal and snapshot has carried: null
// provides and flows, an empty placement list.
func (a *Assignment) MarshalJSON() ([]byte, error) {
	out := assignmentJSON{Provides: a.Provides, Flows: a.Flows, Ops: a.Ops, Version: wireVersion}
	if len(out.Provides) == 0 {
		out.Provides = nil
	}
	if len(out.Flows) == 0 {
		out.Flows = nil
	}
	if out.Ops == nil {
		out.Ops = []Placement{}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Assignment. Lists in any
// order are accepted and sorted; a stream provided twice, or a flow or
// placement listed twice, is an error.
func (a *Assignment) UnmarshalJSON(data []byte) error {
	var in assignmentJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("dsps: decoding assignment: %w", err)
	}
	if in.Version != wireVersion {
		return fmt.Errorf("dsps: unsupported assignment version %d", in.Version)
	}
	slices.SortStableFunc(in.Provides, CompareProvides)
	for i := 1; i < len(in.Provides); i++ {
		if prev, p := in.Provides[i-1], in.Provides[i]; prev.Stream == p.Stream {
			return fmt.Errorf("dsps: stream %d provided twice (hosts %d, %d)", p.Stream, prev.Host, p.Host)
		}
	}
	slices.SortFunc(in.Flows, CompareFlows)
	for i := 1; i < len(in.Flows); i++ {
		if f := in.Flows[i]; f == in.Flows[i-1] {
			return fmt.Errorf("dsps: flow of stream %d from host %d to host %d listed twice", f.Stream, f.From, f.To)
		}
	}
	slices.SortFunc(in.Ops, ComparePlacements)
	for i := 1; i < len(in.Ops); i++ {
		if pl := in.Ops[i]; pl == in.Ops[i-1] {
			return fmt.Errorf("dsps: placement of operator %d on host %d listed twice", pl.Op, pl.Host)
		}
	}
	*a = Assignment{Provides: in.Provides, Flows: in.Flows, Ops: in.Ops}
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
