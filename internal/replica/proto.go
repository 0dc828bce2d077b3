// Package replica implements read replicas for the waybackd event store: a
// coordinator-side feed that ships its committed log over the fleet wire
// framing, and a replica that tails it into a store of its own and serves the
// full read API from there.
//
// The protocol leans on two properties of the eventstore. First, shard
// routing is a pure function of event content (eventstore shardFor), so a
// replica appending the coordinator's committed events — in per-shard order,
// under an equal shard count enforced at handshake — reproduces the
// coordinator's per-shard logs exactly; per-shard committed counts are
// therefore a complete replication watermark, and catch-up after any restart
// is "ship each shard's suffix past the replica's count". Second, the store
// recovers to its last commit record, so a replica that commits after each
// applied round resumes from a consistent cut: anything torn by a crash is
// truncated locally and simply re-shipped.
//
// Message flow (all frames use the fleet length+CRC framing):
//
//	replica                          coordinator feed
//	  | -- Hello{id, counts, amends} ----> |   resume point = replica's own store
//	  | <----------- Batch{events} ------- |   per-shard committed suffixes
//	  | <----------- Amends{records} ----- |   amendment log suffix
//	  | <----------- State{counts} ------- |   round barrier (also idle heartbeat)
//	  | -- Ack{counts, amends} ----------> |   replica committed this cut
//	  | <----------- Err{msg} ------------ |   fatal: divergence, shard mismatch
//
// An Err frame is terminal: the replica stops tailing and reports the error
// through Status (and thence /healthz) rather than guessing. The remedy for
// real divergence — a replica ahead of its coordinator — is wiping the
// replica's store and resyncing from empty.
package replica

import (
	"fmt"

	"repro/internal/binfmt"
	"repro/internal/eventstore"
)

// ProtocolVersion gates the handshake, independently of the fleet sensor
// protocol's version.
const ProtocolVersion = 1

// Message types. Distinct from the fleet sensor message space except for
// batch frames, which are shared deliberately: event shipping reuses
// fleet.EncodeEventBatch (fleet.MsgBatch) including its compression.
const (
	msgRHello  = 32 // replica -> feed: version, id, per-shard counts, amend count
	msgRState  = 33 // feed -> replica: coordinator committed counts (round barrier / heartbeat)
	msgRAmends = 35 // feed -> replica: amendment log suffix
	msgRAck    = 36 // replica -> feed: counts now durable on the replica
	msgRErr    = 37 // feed -> replica: fatal, stop tailing
)

// progress is a replication watermark: per-shard event counts plus the
// amendment record count. Both sides exchange it — the replica as its resume
// point and ack, the feed as the round's target cut.
type progress struct {
	Counts []uint64
	Amends uint64
}

func (p *progress) events() uint64 {
	var n uint64
	for _, c := range p.Counts {
		n += c
	}
	return n
}

// A progress encodes as u32 n | n x u64 count | u64 amends.
func appendProgress(buf []byte, p *progress) []byte {
	buf = binfmt.AppendU32(buf, uint32(len(p.Counts)))
	for _, c := range p.Counts {
		buf = binfmt.AppendU64(buf, c)
	}
	return binfmt.AppendU64(buf, p.Amends)
}

// maxShards bounds the shard count a peer may declare; the count sizes an
// allocation and is untrusted input.
const maxShards = 4096

func decodeProgress(d *binfmt.Decoder) progress {
	n := d.Count(8)
	if n > maxShards {
		d.Fail(fmt.Errorf("peer declares %d shards, limit %d", n, maxShards))
		return progress{}
	}
	p := progress{Counts: make([]uint64, n)}
	for i := range p.Counts {
		p.Counts[i] = d.U64()
	}
	p.Amends = d.U64()
	return p
}

type rhello struct {
	Version uint8
	ID      string
	progress
}

func (h *rhello) encode() []byte {
	buf := binfmt.AppendString16([]byte{msgRHello, h.Version}, h.ID)
	return appendProgress(buf, &h.progress)
}

func decodeRHello(b []byte) (rhello, error) {
	d := binfmt.NewDecoder(b)
	var h rhello
	if t := d.U8(); t != msgRHello {
		return h, fmt.Errorf("replica: expected Hello, got message type %d", t)
	}
	h.Version = d.U8()
	h.ID = d.String16()
	h.progress = decodeProgress(&d)
	if err := d.Finish(); err != nil {
		return h, fmt.Errorf("replica: Hello: %w", err)
	}
	if h.Version != ProtocolVersion {
		return h, fmt.Errorf("replica: protocol version %d, want %d", h.Version, ProtocolVersion)
	}
	if h.ID == "" {
		return h, fmt.Errorf("replica: empty replica id in Hello")
	}
	return h, nil
}

func encodeProgressMsg(typ byte, p *progress) []byte {
	return appendProgress([]byte{typ}, p)
}

func decodeProgressMsg(b []byte, typ byte, what string) (progress, error) {
	d := binfmt.NewDecoder(b)
	if t := d.U8(); t != typ {
		return progress{}, fmt.Errorf("replica: expected %s, got message type %d", what, t)
	}
	p := decodeProgress(&d)
	if err := d.Finish(); err != nil {
		return progress{}, fmt.Errorf("replica: %s: %w", what, err)
	}
	return p, nil
}

// encodeAmends frames an amendment-log suffix: u32 count, then each record
// as a u32-length EncodeAmendment payload, the encoding amend.log uses on
// disk.
func encodeAmends(as []eventstore.Amendment) []byte {
	buf := binfmt.AppendU32([]byte{msgRAmends}, uint32(len(as)))
	var payload []byte
	for i := range as {
		payload = eventstore.EncodeAmendment(payload[:0], &as[i])
		buf = binfmt.AppendBytes32(buf, payload)
	}
	return buf
}

func decodeAmends(b []byte) ([]eventstore.Amendment, error) {
	d := binfmt.NewDecoder(b)
	if t := d.U8(); t != msgRAmends {
		return nil, fmt.Errorf("replica: expected Amends, got message type %d", t)
	}
	// Each record costs at least its length prefix.
	as := make([]eventstore.Amendment, d.Count(4))
	for i := range as {
		payload := d.Bytes32()
		if d.Err() != nil {
			break
		}
		var err error
		if as[i], err = eventstore.DecodeAmendment(payload); err != nil {
			return nil, err
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("replica: Amends: %w", err)
	}
	return as, nil
}

func encodeRErr(msg string) []byte {
	return binfmt.AppendString16([]byte{msgRErr}, msg)
}

func decodeRErr(b []byte) (string, error) {
	d := binfmt.NewDecoder(b)
	if t := d.U8(); t != msgRErr {
		return "", fmt.Errorf("replica: expected Err, got message type %d", t)
	}
	msg := d.String16()
	if err := d.Finish(); err != nil {
		return "", fmt.Errorf("replica: Err: %w", err)
	}
	return msg, nil
}
