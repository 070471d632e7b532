package dispatch

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/telemetry"
)

// Fleet state rides the same write-ahead journal machinery the job farm
// uses (checkpoint.Journal: CRC-framed, fsynced appends, salvaged-tail
// recovery), so a killed tuned resumes with its fleet membership intact:
// which nodes it knew, and which were last seen dead. Records are small
// JSON payloads, one per membership change, never one per placement:
//
//	{"op":"register","node":N}   node N configured statically (-nodes)
//	{"op":"join","node":N,"addr":A}  N registered itself at runtime from A
//	{"op":"leave","node":N}      N's liveness lease expired
//	{"op":"drain","node":N}      N deregistered itself (graceful decommission)
//	{"op":"dead","node":N}       N was quarantined (consecutive failures)
//	{"op":"alive","node":N}      N answered again after a quarantine
//
// Join/leave/drain give a restarted controller the last-known dynamic
// membership (FleetView.Members): nodes that joined and never drained are
// re-dialed on resume without waiting for them to re-register. Which
// trials are banked is the session checkpoint's business, so placements
// are not journaled; the "dispatch" and "settle" records older builds
// wrote per placement replay as no-ops.

const (
	opRegister = "register"
	opJoin     = "join"
	opLeave    = "leave"
	opDrain    = "drain"
	opDead     = "dead"
	opAlive    = "alive"
)

type fleetRecord struct {
	Op   string `json:"op"`
	Node string `json:"node,omitempty"`
	Addr string `json:"addr,omitempty"`
}

// Fleet is the durable fleet-state journal attached to a Pool.
type Fleet struct {
	j   *checkpoint.Journal
	tel *telemetry.Registry
}

// FleetView is the state reconstructed from a journal on open.
type FleetView struct {
	// Known lists every node ever registered, sorted.
	Known []string
	// Dead marks nodes whose last membership record was "dead".
	Dead map[string]bool
	// Members maps dynamically joined nodes (join without a later leave or
	// drain) to the address they advertised — the live membership the
	// controller last knew, re-dialed on resume.
	Members map[string]string
}

// OpenFleet opens (or creates) the fleet journal at path and replays it
// into a view. Torn tails are salvaged by the journal layer.
func OpenFleet(path string, tel *telemetry.Registry) (*Fleet, *FleetView, error) {
	j, payloads, err := checkpoint.OpenJournal(path, checkpoint.JournalKind, tel)
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: open fleet journal: %w", err)
	}
	view := &FleetView{Dead: make(map[string]bool), Members: make(map[string]string)}
	known := make(map[string]bool)
	for _, p := range payloads {
		var rec fleetRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			// The journal layer already CRC-checked the frame; a payload
			// that still fails to parse is from a future protocol. Skip it
			// rather than refuse the whole fleet.
			tel.Counter("dispatch_fleet_bad_records_total").Inc()
			continue
		}
		switch rec.Op {
		case opRegister:
			known[rec.Node] = true
		case opJoin:
			known[rec.Node] = true
			view.Members[rec.Node] = rec.Addr
			delete(view.Dead, rec.Node)
		case opLeave, opDrain:
			delete(view.Members, rec.Node)
		case opDead:
			known[rec.Node] = true
			view.Dead[rec.Node] = true
		case opAlive:
			known[rec.Node] = true
			delete(view.Dead, rec.Node)
		}
	}
	for n := range known {
		view.Known = append(view.Known, n)
	}
	sort.Strings(view.Known)
	return &Fleet{j: j, tel: tel}, view, nil
}

// append writes one record. Fleet durability is best-effort advisory
// state — a failed append must never fail a measurement — so errors are
// counted, not propagated.
func (f *Fleet) append(rec fleetRecord) {
	if f == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		err = f.j.Append(payload)
	}
	if err != nil {
		f.tel.Counter("dispatch_fleet_append_errors_total").Inc()
	}
}

func (f *Fleet) register(node string)   { f.append(fleetRecord{Op: opRegister, Node: node}) }
func (f *Fleet) join(node, addr string) { f.append(fleetRecord{Op: opJoin, Node: node, Addr: addr}) }
func (f *Fleet) leave(node string)      { f.append(fleetRecord{Op: opLeave, Node: node}) }
func (f *Fleet) drain(node string)      { f.append(fleetRecord{Op: opDrain, Node: node}) }
func (f *Fleet) dead(node string)       { f.append(fleetRecord{Op: opDead, Node: node}) }
func (f *Fleet) alive(node string)      { f.append(fleetRecord{Op: opAlive, Node: node}) }

// Close closes the underlying journal.
func (f *Fleet) Close() error {
	if f == nil {
		return nil
	}
	return f.j.Close()
}
