package wire

// journal is the shard server's session meta log: the second file of a
// -data-dir next to the durable tier's shard.log, and a storage.Log like
// it — framing, replay, torn-tail truncation and the flush that is the
// durability point are the log's; this file is only the payloads. Where
// shard.log persists WHAT the shard buffered, the journal persists WHO it
// was serving — the coordinator session nonce, every attached query (id,
// algorithm, SQL) and its release, and a per-epoch energy checkpoint — so
// a kill -9'd shard process restarted on the same data dir resumes the
// SAME session: the reconnecting coordinator's unchanged nonce matches
// instead of resetting the session, its queries are already attached
// (replayed from the journal through the normal attach path), and the
// network's energy ledger picks up where the dead process last flushed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"kspot/internal/model"
	"kspot/internal/storage"
)

// Journal record kinds: the first payload byte.
const (
	jNonce  = 1 // u64 nonce — a new coordinator session began
	jAttach = 2 // u32 qid | str algo | str sql — a query attached
	jEnergy = 3 // storage.AppendEnergies — an epoch's ledger checkpoint
	jDetach = 4 // u32 qid — an attached query was released
)

// journalState is what replaying a journal yields.
type journalState struct {
	nonce       uint64
	attaches    []AttachReq // still attached, in attach order
	energyEpoch model.Epoch
	hasEnergy   bool
	energy      []storage.NodeEnergy
}

var errJournalRecord = errors.New("wire: journal record malformed")

// apply folds one journal payload into the state. The log's CRC already
// vouched for the bytes, so a payload that does not parse was written by
// something else and fails the replay instead of being skipped.
func (st *journalState) apply(p []byte) error {
	if len(p) == 0 {
		return errJournalRecord
	}
	switch p[0] {
	case jNonce:
		if len(p) != 9 {
			return errJournalRecord
		}
		// A nonce record begins a session: earlier session state is void.
		*st = journalState{nonce: binary.LittleEndian.Uint64(p[1:])}
	case jAttach:
		if len(p) < 5 {
			return errJournalRecord
		}
		algo, rest, err := decodeString(p[5:])
		if err != nil {
			return errJournalRecord
		}
		sql, rest, err := decodeString(rest)
		if err != nil || len(rest) != 0 {
			return errJournalRecord
		}
		st.attaches = append(st.attaches, AttachReq{Query: binary.LittleEndian.Uint32(p[1:]), Algo: algo, SQL: sql})
	case jDetach:
		if len(p) != 5 {
			return errJournalRecord
		}
		qid := binary.LittleEndian.Uint32(p[1:])
		st.attaches = slices.DeleteFunc(st.attaches, func(a AttachReq) bool { return a.Query == qid })
	case jEnergy:
		e, rows, err := storage.DecodeEnergies(p[1:])
		if err != nil {
			return err
		}
		st.energyEpoch, st.hasEnergy, st.energy = e, true, rows
	default:
		return fmt.Errorf("wire: journal record kind %d unknown", p[0])
	}
	return nil
}

// journal appends session meta records to one log.
type journal struct {
	log *storage.Log
}

// openJournal opens (or creates) the journal and recovers the session the
// dead process left in it.
func openJournal(path string) (*journal, journalState, error) {
	var st journalState
	log, err := storage.OpenLog(path, st.apply)
	if err != nil {
		return nil, st, err
	}
	return &journal{log: log}, st, nil
}

// write appends one payload and flushes it to the kernel.
func (j *journal) write(payload []byte) error {
	j.log.Append(payload)
	return j.log.Flush()
}

// Nonce begins a new coordinator session. A nonce record voids everything
// before it on replay, so the journal is rewritten to hold only it: the
// file is one session long however many sessions the shard has served.
func (j *journal) Nonce(nonce uint64) error {
	p := binary.LittleEndian.AppendUint64([]byte{jNonce}, nonce)
	return j.log.Rewrite(func() { j.log.Append(p) })
}

// Attach records one attached query.
func (j *journal) Attach(req AttachReq) error {
	p := binary.LittleEndian.AppendUint32([]byte{jAttach}, req.Query)
	p = appendString(p, req.Algo)
	return j.write(appendString(p, req.SQL))
}

// Detach records one released query: a restart replays only the attaches
// no later detach names.
func (j *journal) Detach(qid uint32) error {
	return j.write(binary.LittleEndian.AppendUint32([]byte{jDetach}, qid))
}

// Energy records an epoch's ledger checkpoint, rows ascending by node.
func (j *journal) Energy(e model.Epoch, rows []storage.NodeEnergy) error {
	return j.write(storage.AppendEnergies([]byte{jEnergy}, e, rows))
}

// Close flushes and closes the journal.
func (j *journal) Close() error { return j.log.Close() }
