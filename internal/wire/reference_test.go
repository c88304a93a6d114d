package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"asyncfd/internal/core"
	"asyncfd/internal/core/tagset"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
)

// reference_test.go keeps the decoder as it was before it kept one sticky
// error: a per-field error return at every read, each message built field by
// field. FuzzDecode holds Decode to it.

// refDecoder walks an encoded buffer.
type refDecoder struct {
	buf []byte
}

func (d *refDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.buf = d.buf[n:]
	return v, nil
}

// id decodes a process id. Ids are 31-bit; a wider value is refused, not
// truncated onto some other process.
func (d *refDecoder) id() (ident.ID, error) {
	v, err := d.uvarint()
	if err != nil {
		return ident.Nil, err
	}
	if v > math.MaxInt32 {
		return ident.Nil, fmt.Errorf("%w: %d", ErrIDRange, v)
	}
	return ident.ID(v), nil
}

func (d *refDecoder) entries() ([]tagset.Entry, error) {
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

// referenceDecode is Decode as it was before it refused bytes left after the
// message: it accepted them, and here it also returns how many there were.
func referenceDecode(data []byte) (msg any, left int, err error) {
	if len(data) == 0 {
		return nil, 0, ErrTruncated
	}
	d := &refDecoder{buf: data[1:]}
	msg, err = d.message(data[0])
	return msg, len(d.buf), err
}

func (d *refDecoder) message(kind byte) (any, error) {
	switch kind {
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
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownKind, kind)
	}
}
