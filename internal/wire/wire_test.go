package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"asyncfd/internal/core"
	"asyncfd/internal/core/tagset"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
)

func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	b, err := Encode(payload)
	if err != nil {
		t.Fatalf("Encode(%+v): %v", payload, err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%x): %v", b, err)
	}
	return got
}

func TestQueryRoundTrip(t *testing.T) {
	q := core.Query{
		From:  3,
		Round: 77,
		Suspected: []tagset.Entry{
			{ID: 1, Tag: 5},
			{ID: 9, Tag: 1 << 40},
		},
		Mistake: []tagset.Entry{{ID: 2, Tag: 0}},
	}
	got := roundTrip(t, q)
	if !reflect.DeepEqual(got, q) {
		t.Errorf("round trip = %+v, want %+v", got, q)
	}
}

func TestEmptyQueryRoundTrip(t *testing.T) {
	q := core.Query{From: 0, Round: 0}
	got := roundTrip(t, q).(core.Query)
	if got.From != 0 || got.Round != 0 || len(got.Suspected) != 0 || len(got.Mistake) != 0 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := core.Response{From: 12, Round: 1 << 50}
	if got := roundTrip(t, r); !reflect.DeepEqual(got, r) {
		t.Errorf("round trip = %+v, want %+v", got, r)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	m := heartbeat.Message{From: 7, Seq: 123456}
	if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	m := heartbeat.VectorMessage{From: 2, Vector: []uint64{0, 5, 1 << 33}}
	if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}
	empty := heartbeat.VectorMessage{From: 1, Vector: []uint64{}}
	got := roundTrip(t, empty).(heartbeat.VectorMessage)
	if got.From != 1 || len(got.Vector) != 0 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestEncodeUnsupported(t *testing.T) {
	if _, err := Encode("a string"); err == nil {
		t.Error("Encode of unsupported type succeeded")
	}
	if Size("a string") != 0 {
		t.Error("Size of unsupported type nonzero")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(nil) err = %v", err)
	}
	if _, err := Decode([]byte{0x7f}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("Decode(unknown kind) err = %v", err)
	}
	// Kinds 5 and 6 were second and third spellings of the heartbeat; with
	// a well-formed heartbeat body behind them they are unknown now.
	for _, kind := range []byte{0x05, 0x06} {
		if _, err := Decode([]byte{kind, 7, 1}); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("Decode(retired kind 0x%02x) err = %v, want ErrUnknownKind", kind, err)
		}
	}
	// Truncate a valid query at every byte boundary.
	q := core.Query{From: 1, Round: 2, Suspected: []tagset.Entry{{ID: 3, Tag: 999}}}
	full, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("Decode of %d/%d-byte prefix succeeded", cut, len(full))
		}
	}
}

// uv is a message body: the uvarints of vs, one after another.
func uv(kind byte, vs ...uint64) []byte {
	buf := []byte{kind}
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// wideIDFrames are well-formed frames whose only fault is a process id past
// ident.ID's 31 bits. Truncated onto int32 the first is a query about p2 and
// the second a query from p-2147483648.
var wideIDFrames = [][]byte{
	uv(kindQuery, 1, 7, 1, 1<<32+2, 5, 0), // suspected entry id 2³²+2
	uv(kindQuery, 1<<31, 7, 0, 0),         // From 2³¹
}

// TestDecodeRejectsWideIDs: an id that does not fit 31 bits is an error in
// every id-bearing field of every kind — never some other process's id.
func TestDecodeRejectsWideIDs(t *testing.T) {
	const maxID = math.MaxInt32
	tests := []struct {
		name  string
		frame []byte
		ok    bool
	}{
		{"query entry 2^32+2", wideIDFrames[0], false},
		{"query from 2^31", wideIDFrames[1], false},
		{"query mistake entry 2^31", uv(kindQuery, 1, 7, 0, 1, 1<<31, 5), false},
		{"query from 2^64-1 (an encoded Nil)", uv(kindQuery, math.MaxUint64, 7, 0, 0), false},
		{"response from 2^31", uv(kindResponse, 1<<31, 7), false},
		{"heartbeat from 2^40", uv(kindHeartbeat, 1<<40, 7), false},
		{"vector from 2^31", uv(kindVector, 1<<31, 1, 9), false},
		{"query from and entries at 2^31-1", uv(kindQuery, maxID, 7, 1, maxID, 5, 1, maxID, 6), true},
		{"response from 2^31-1", uv(kindResponse, maxID, 7), true},
		{"heartbeat from 2^31-1", uv(kindHeartbeat, maxID, 7), true},
		{"vector from 2^31-1", uv(kindVector, maxID, 1, 9), true},
	}
	for _, tt := range tests {
		msg, err := Decode(tt.frame)
		switch {
		case tt.ok && err != nil:
			t.Errorf("%s: err = %v, want a message", tt.name, err)
		case !tt.ok && !errors.Is(err, ErrIDRange):
			t.Errorf("%s: decoded %+v, err = %v; want ErrIDRange", tt.name, msg, err)
		}
	}
	if msg, err := Decode(uv(kindQuery, maxID, 7, 1, maxID, 5, 0)); err != nil ||
		!reflect.DeepEqual(msg, core.Query{From: maxID, Round: 7, Suspected: []tagset.Entry{{ID: maxID, Tag: 5}}}) {
		t.Errorf("largest id: decoded %+v, err = %v", msg, err)
	}
}

func TestDecodeEntryCountLies(t *testing.T) {
	// A message claiming a huge entry count must fail cleanly, not allocate.
	buf := []byte{kindQuery}
	buf = append(buf, 1, 1)          // from, round
	buf = append(buf, 0xff, 0xff, 3) // suspected count = large varint
	if _, err := Decode(buf); err == nil {
		t.Error("Decode with lying count succeeded")
	}
}

func TestSizeMatchesEncoding(t *testing.T) {
	q := core.Query{From: 3, Round: 9, Suspected: []tagset.Entry{{ID: 1, Tag: 2}}}
	b, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	if Size(q) != len(b) {
		t.Errorf("Size = %d, want %d", Size(q), len(b))
	}
}

func TestQuickQueryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := core.Query{
			From:  ident.ID(r.Intn(1000)),
			Round: uint64(r.Int63()),
		}
		for i := 0; i < r.Intn(20); i++ {
			q.Suspected = append(q.Suspected, tagset.Entry{ID: ident.ID(r.Intn(1000)), Tag: tagset.Tag(r.Uint64())})
		}
		for i := 0; i < r.Intn(20); i++ {
			q.Mistake = append(q.Mistake, tagset.Entry{ID: ident.ID(r.Intn(1000)), Tag: tagset.Tag(r.Uint64())})
		}
		b, err := Encode(q)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		dq := got.(core.Query)
		if dq.From != q.From || dq.Round != q.Round ||
			len(dq.Suspected) != len(q.Suspected) || len(dq.Mistake) != len(q.Mistake) {
			return false
		}
		for i := range q.Suspected {
			if dq.Suspected[i] != q.Suspected[i] {
				return false
			}
		}
		for i := range q.Mistake {
			if dq.Mistake[i] != q.Mistake[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeRejectsTrailing: a frame is one message. Bytes after a complete
// message of any kind are refused, not ignored; Encode never writes them.
func TestDecodeRejectsTrailing(t *testing.T) {
	payloads := []any{
		core.Query{From: 3, Round: 9, Suspected: []tagset.Entry{{ID: 1, Tag: 4}}},
		core.Response{From: 2, Round: 9},
		heartbeat.Message{From: 5, Seq: 77},
		heartbeat.VectorMessage{From: 1, Vector: []uint64{9, 0, 300}},
	}
	for _, p := range payloads {
		frame, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range [][]byte{{0}, {0xff, 0xff}, frame} {
			if msg, err := Decode(append(frame[:len(frame):len(frame)], tail...)); !errors.Is(err, ErrTrailing) {
				t.Errorf("%T with %x appended: decoded %+v, err = %v; want ErrTrailing", p, tail, msg, err)
			}
		}
	}
}

// FuzzDecode holds Decode to the decoder it replaced (referenceDecode, in
// reference_test.go) and to the codec. Where the reference errs, Decode
// returns the same error text; where it leaves bytes over, Decode returns
// ErrTrailing; otherwise Decode returns the same message. A message Decode
// accepts re-encodes through AppendEncode to a frame that decodes to an
// equal value. Decode never panics. The seeds in testdata/fuzz/FuzzDecode are
// one valid frame per kind, the retired kinds 5 and 6, the wide-id frames,
// entry and vector counts that lie (2⁶² elements: allocated, they would panic)
// and valid frames with bytes after them.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, err := Decode(frame)
		want, left, wantErr := referenceDecode(frame)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("Decode(%x) = %+v, %v; the reference errs %v", frame, msg, err, wantErr)
			}
		case left > 0:
			if !errors.Is(err, ErrTrailing) {
				t.Fatalf("Decode(%x) = %+v, %v; the reference leaves %d bytes, want ErrTrailing", frame, msg, err, left)
			}
		case err != nil || !reflect.DeepEqual(msg, want):
			t.Fatalf("Decode(%x) = %+v, %v; the reference decodes %+v", frame, msg, err, want)
		}
		if err != nil {
			return
		}
		again, err := AppendEncode(nil, msg)
		if err != nil {
			t.Fatalf("Decode(%x) = %+v, which does not encode: %v", frame, msg, err)
		}
		if back, err := Decode(again); err != nil || !reflect.DeepEqual(back, msg) {
			t.Fatalf("Decode(%x) = %+v, re-encoded %x decodes to %+v (err %v)", frame, msg, again, back, err)
		}
	})
}

func BenchmarkEncodeQuery(b *testing.B) {
	q := core.Query{From: 3, Round: 9}
	for i := 0; i < 16; i++ {
		q.Suspected = append(q.Suspected, tagset.Entry{ID: ident.ID(i), Tag: tagset.Tag(i * 7)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeQuery(b *testing.B) {
	q := core.Query{From: 3, Round: 9}
	for i := 0; i < 16; i++ {
		q.Suspected = append(q.Suspected, tagset.Entry{ID: ident.ID(i), Tag: tagset.Tag(i * 7)})
	}
	buf, err := Encode(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendEncode pins the append variant to Encode: same bytes, appended
// in place after the existing prefix, dst untouched on error.
func TestAppendEncode(t *testing.T) {
	payloads := []any{
		core.Query{From: 3, Round: 9, Suspected: []tagset.Entry{{ID: 1, Tag: 4}}},
		core.Response{From: 2, Round: 9},
		heartbeat.Message{From: 5, Seq: 77},
		heartbeat.VectorMessage{From: 1, Vector: []uint64{9, 0, 300}},
	}
	for _, p := range payloads {
		want, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{0xAA, 0xBB, 0xCC}
		got, err := AppendEncode(append([]byte(nil), prefix...), p)
		if err != nil {
			t.Fatalf("AppendEncode(%+v): %v", p, err)
		}
		if !reflect.DeepEqual(got[:3], prefix) {
			t.Errorf("%T: prefix clobbered: %x", p, got[:3])
		}
		if !reflect.DeepEqual(got[3:], want) {
			t.Errorf("%T: AppendEncode = %x, Encode = %x", p, got[3:], want)
		}
	}
	dst := []byte{1, 2}
	out, err := AppendEncode(dst, "unsupported")
	if err == nil {
		t.Fatal("unsupported payload accepted")
	}
	if !reflect.DeepEqual(out, dst) {
		t.Errorf("dst changed on error: %x", out)
	}
}
