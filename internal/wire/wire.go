// Package wire provides a compact binary encoding for the protocol messages
// of every detector in the repository. It serves two purposes: byte-accurate
// traffic accounting in the simulator (experiment E5) and framing for the
// real TCP transport (internal/tcpnet).
//
// The format is a one-byte message kind followed by uvarint-encoded fields;
// process ids and counters are uvarints, so small clusters pay one byte per
// id. There are four kinds: the query and the response of the time-free
// detector, the heartbeat every timer-based kind sends (heartbeat.Message,
// whichever rule listens) and the gossip detector's heartbeat vector. The
// format is self-describing enough to decode without a schema and
// deliberately has no external dependencies.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"asyncfd/internal/core"
	"asyncfd/internal/core/tagset"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
)

// Message kind tags.
const (
	kindQuery     byte = 1
	kindResponse  byte = 2
	kindHeartbeat byte = 3
	kindVector    byte = 4
)

// ErrTruncated reports an encoded message shorter than its header promises.
var ErrTruncated = errors.New("wire: truncated message")

// ErrUnknownKind reports an unrecognized message kind byte.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// ErrIDRange reports a process id, of a sender or of an entry, that does not
// fit ident.ID's 31 bits.
var ErrIDRange = errors.New("wire: process id out of range")

// Encode serializes one of the supported payload types.
func Encode(payload any) ([]byte, error) {
	return AppendEncode(nil, payload)
}

// AppendEncode serializes payload onto dst and returns the extended buffer,
// letting hot send paths (the tcpnet frame writer, broadcast fan-out) reuse
// one buffer instead of allocating per message. On error dst is returned
// unchanged.
func AppendEncode(dst []byte, payload any) ([]byte, error) {
	switch m := payload.(type) {
	case core.Query:
		buf := append(dst, kindQuery)
		buf = binary.AppendUvarint(buf, uint64(m.From))
		buf = binary.AppendUvarint(buf, m.Round)
		buf = appendEntries(buf, m.Suspected)
		buf = appendEntries(buf, m.Mistake)
		return buf, nil
	case core.Response:
		buf := append(dst, kindResponse)
		buf = binary.AppendUvarint(buf, uint64(m.From))
		buf = binary.AppendUvarint(buf, m.Round)
		return buf, nil
	case heartbeat.Message:
		buf := append(dst, kindHeartbeat)
		buf = binary.AppendUvarint(buf, uint64(m.From))
		buf = binary.AppendUvarint(buf, m.Seq)
		return buf, nil
	case heartbeat.VectorMessage:
		buf := append(dst, kindVector)
		buf = binary.AppendUvarint(buf, uint64(m.From))
		buf = binary.AppendUvarint(buf, uint64(len(m.Vector)))
		for _, v := range m.Vector {
			buf = binary.AppendUvarint(buf, v)
		}
		return buf, nil
	default:
		return dst, fmt.Errorf("wire: unsupported payload type %T", payload)
	}
}

func appendEntries(buf []byte, entries []tagset.Entry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(e.ID))
		buf = binary.AppendUvarint(buf, uint64(e.Tag))
	}
	return buf
}

// decoder walks an encoded buffer.
type decoder struct {
	buf []byte
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.buf = d.buf[n:]
	return v, nil
}

// id decodes a process id. Ids are 31-bit; a wider value is refused, not
// truncated onto some other process.
func (d *decoder) id() (ident.ID, error) {
	v, err := d.uvarint()
	if err != nil {
		return ident.Nil, err
	}
	if v > math.MaxInt32 {
		return ident.Nil, fmt.Errorf("%w: %d", ErrIDRange, v)
	}
	return ident.ID(v), nil
}

func (d *decoder) entries() ([]tagset.Entry, error) {
	count, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if count > uint64(len(d.buf)) { // each entry is ≥ 2 bytes; cheap sanity cap
		return nil, ErrTruncated
	}
	out := make([]tagset.Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		id, err := d.id()
		if err != nil {
			return nil, err
		}
		tag, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, tagset.Entry{ID: id, Tag: tagset.Tag(tag)})
	}
	return out, nil
}

// Decode parses a message produced by Encode.
func Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	d := &decoder{buf: data[1:]}
	switch data[0] {
	case kindQuery:
		var q core.Query
		var err error
		if q.From, err = d.id(); err != nil {
			return nil, err
		}
		if q.Round, err = d.uvarint(); err != nil {
			return nil, err
		}
		if q.Suspected, err = d.entries(); err != nil {
			return nil, err
		}
		if q.Mistake, err = d.entries(); err != nil {
			return nil, err
		}
		return q, nil
	case kindResponse:
		var r core.Response
		var err error
		if r.From, err = d.id(); err != nil {
			return nil, err
		}
		if r.Round, err = d.uvarint(); err != nil {
			return nil, err
		}
		return r, nil
	case kindHeartbeat:
		var m heartbeat.Message
		var err error
		if m.From, err = d.id(); err != nil {
			return nil, err
		}
		if m.Seq, err = d.uvarint(); err != nil {
			return nil, err
		}
		return m, nil
	case kindVector:
		var m heartbeat.VectorMessage
		var err error
		if m.From, err = d.id(); err != nil {
			return nil, err
		}
		count, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if count > uint64(len(d.buf)) {
			return nil, ErrTruncated
		}
		m.Vector = make([]uint64, count)
		for i := range m.Vector {
			if m.Vector[i], err = d.uvarint(); err != nil {
				return nil, err
			}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownKind, data[0])
	}
}

// Size returns the encoded size of payload, or 0 for unsupported types
// (convenient as a netsim.Config.SizeOf hook).
func Size(payload any) int {
	b, err := Encode(payload)
	if err != nil {
		return 0
	}
	return len(b)
}
