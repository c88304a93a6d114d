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
//
// Decode is the socket edge and fails closed: a frame that ends inside a
// field, carries a process id wider than 31 bits, announces a list its bytes
// cannot hold, has an unknown kind or has bytes left after its message is an
// error, never a partial message or one about some other process. The
// decoder keeps its first error and reads zeros after it, so each kind is
// one composite literal checked once.
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

// ErrTrailing reports bytes left over after a complete message.
var ErrTrailing = errors.New("wire: trailing bytes after message")

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

// decoder walks an encoded buffer. The first read that fails leaves its
// error in err; every read after it returns zero and consumes nothing, so a
// message is read field by field and checked once.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// id decodes a process id. Ids are 31-bit; a wider value is refused, not
// truncated onto some other process.
func (d *decoder) id() ident.ID {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.err = fmt.Errorf("%w: %d", ErrIDRange, v)
		return ident.Nil
	}
	return ident.ID(v)
}

// count decodes a list length. Every element takes at least one byte, so a
// count the rest of the buffer cannot hold is refused before it allocates.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.err = ErrTruncated
		return 0
	}
	return int(n)
}

func (d *decoder) entries() []tagset.Entry {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]tagset.Entry, n)
	for i := range out {
		out[i] = tagset.Entry{ID: d.id(), Tag: tagset.Tag(d.uvarint())}
	}
	return out
}

func (d *decoder) vector() []uint64 {
	out := make([]uint64, d.count())
	for i := range out {
		out[i] = d.uvarint()
	}
	return out
}

// Decode parses a message produced by Encode. A frame with bytes left after
// its message is refused (ErrTrailing): Encode never writes one.
func Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	d := &decoder{buf: data[1:]}
	var msg any
	// Go evaluates the calls in a composite literal left to right, so each
	// message's fields are read in wire order.
	switch data[0] {
	case kindQuery:
		msg = core.Query{From: d.id(), Round: d.uvarint(), Suspected: d.entries(), Mistake: d.entries()}
	case kindResponse:
		msg = core.Response{From: d.id(), Round: d.uvarint()}
	case kindHeartbeat:
		msg = heartbeat.Message{From: d.id(), Seq: d.uvarint()}
	case kindVector:
		msg = heartbeat.VectorMessage{From: d.id(), Vector: d.vector()}
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownKind, data[0])
	}
	if d.err == nil && len(d.buf) > 0 {
		d.err = ErrTrailing
	}
	if d.err != nil {
		return nil, d.err
	}
	return msg, nil
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
