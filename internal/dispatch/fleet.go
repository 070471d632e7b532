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
// recovery), so a killed tuned resumes with its fleet view intact: which
// nodes it knew, which were last seen dead, and which trials were in
// flight on whom when the process died. Records are small JSON payloads:
//
//	{"op":"register","node":N}   node N configured statically (-nodes)
//	{"op":"join","node":N,"addr":A}  N registered itself at runtime from A
//	{"op":"leave","node":N}      N's liveness lease expired
//	{"op":"drain","node":N}      N deregistered itself (graceful decommission)
//	{"op":"dead","node":N}       N was quarantined (consecutive failures)
//	{"op":"alive","node":N}      N answered again after a quarantine
//	{"op":"dispatch","node":N,"key":K}  trial K placed on N
//	{"op":"settle","node":N,"key":K}    placement resolved (ok or failed)
//
// A dispatch without a matching settle is an orphan: the controller died
// while the trial was in flight. Orphans are adopted on recovery — their
// ownership is cleared and the session's own checkpoint replay decides
// whether the trial re-runs — and surfaced via Pool.Orphans so nothing is
// silently lost or double-counted. Join/leave/drain give a restarted
// controller the last-known dynamic membership (FleetView.Members): nodes
// that joined and never drained are re-dialed on resume without waiting
// for them to re-register.

const (
	opRegister = "register"
	opJoin     = "join"
	opLeave    = "leave"
	opDrain    = "drain"
	opDead     = "dead"
	opAlive    = "alive"
	opDispatch = "dispatch"
	opSettle   = "settle"
)

type fleetRecord struct {
	Op   string `json:"op"`
	Node string `json:"node,omitempty"`
	Addr string `json:"addr,omitempty"`
	Key  string `json:"key,omitempty"`
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
	// Inflight maps orphaned trial keys to the node that owned them when
	// the journal went quiet.
	Inflight map[string]string
}

// OpenFleet opens (or creates) the fleet journal at path and replays it
// into a view. Torn tails are salvaged by the journal layer.
func OpenFleet(path string, tel *telemetry.Registry) (*Fleet, *FleetView, error) {
	j, payloads, err := checkpoint.OpenJournal(path, checkpoint.JournalKind, tel)
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: open fleet journal: %w", err)
	}
	view := &FleetView{Dead: make(map[string]bool), Members: make(map[string]string), Inflight: make(map[string]string)}
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
		case opDispatch:
			view.Inflight[rec.Key] = rec.Node
		case opSettle:
			delete(view.Inflight, rec.Key)
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
func (f *Fleet) dispatch(node, key string) {
	f.append(fleetRecord{Op: opDispatch, Node: node, Key: key})
}
func (f *Fleet) settle(node, key string) { f.append(fleetRecord{Op: opSettle, Node: node, Key: key}) }

// Close closes the underlying journal.
func (f *Fleet) Close() error {
	if f == nil {
		return nil
	}
	return f.j.Close()
}
