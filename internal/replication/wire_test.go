package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/store"
)

func feedSnapshot() *store.Snapshot {
	return &store.Snapshot{
		Epoch: 42, Directed: false, N: 6,
		Edges: []store.Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.75}, {U: 3, V: 4, P: 0.125}},
	}
}

func feedBatches() []store.Batch {
	return []store.Batch{
		{Epoch: 44, Muts: []store.Mut{
			{Op: store.OpAddEdge, U: 2, V: 3, P: 0.5},
			{Op: store.OpSetProb, U: 0, V: 1, P: 0.25},
		}},
		{Epoch: 45, Muts: []store.Mut{{Op: store.OpRemoveEdge, U: 3, V: 4}}},
	}
}

// encodeFeed renders a canonical feed stream: snapshot, batches, heartbeat.
func encodeFeed(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, feedSnapshot()); err != nil {
		t.Fatal(err)
	}
	for _, b := range feedBatches() {
		if err := WriteBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteHeartbeat(&buf, 45); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameRoundTrip: a written stream decodes to the exact frames, in
// order, ending in clean EOF.
func TestFrameRoundTrip(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader(encodeFeed(t)))
	f, err := fr.Next()
	if err != nil || f.Kind != FrameSnapshot {
		t.Fatalf("frame 1: kind=%d err=%v", f.Kind, err)
	}
	if f.Snapshot.Epoch != 42 || len(f.Snapshot.Edges) != 3 || f.Snapshot.N != 6 {
		t.Fatalf("snapshot mangled: %+v", f.Snapshot)
	}
	for i, want := range feedBatches() {
		f, err = fr.Next()
		if err != nil || f.Kind != FrameBatch {
			t.Fatalf("batch frame %d: kind=%d err=%v", i, f.Kind, err)
		}
		if f.Batch.Epoch != want.Epoch || len(f.Batch.Muts) != len(want.Muts) {
			t.Fatalf("batch %d mangled: %+v want %+v", i, f.Batch, want)
		}
		if f.Batch.PrevEpoch() != want.PrevEpoch() {
			t.Fatalf("batch %d PrevEpoch %d want %d", i, f.Batch.PrevEpoch(), want.PrevEpoch())
		}
	}
	f, err = fr.Next()
	if err != nil || f.Kind != FrameHeartbeat || f.Epoch != 45 {
		t.Fatalf("heartbeat: %+v err=%v", f, err)
	}
	if _, err = fr.Next(); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

// TestFrameTornStream: every possible truncation of a valid stream decodes
// a valid prefix and then fails typed — io.EOF only at a frame boundary,
// io.ErrUnexpectedEOF mid-frame, never a panic or a misparsed frame.
func TestFrameTornStream(t *testing.T) {
	full := encodeFeed(t)
	// Frame boundaries for the boundary/mid-frame distinction.
	boundaries := map[int]bool{0: true, len(full): true}
	{
		fr := NewFrameReader(bytes.NewReader(full))
		off := 0
		rest := full
		for {
			f, err := fr.Next()
			if err != nil {
				break
			}
			_ = f
			// Recompute consumed length from the header of rest.
			plen := int(binary.LittleEndian.Uint32(rest[1:5]))
			off += frameHeaderLen + plen
			rest = full[off:]
			boundaries[off] = true
		}
	}
	for cut := 0; cut < len(full); cut++ {
		fr := NewFrameReader(bytes.NewReader(full[:cut]))
		var err error
		for err == nil {
			_, err = fr.Next()
		}
		if boundaries[cut] {
			if err != io.EOF {
				t.Fatalf("cut at boundary %d: %v, want io.EOF", cut, err)
			}
		} else if err != io.ErrUnexpectedEOF && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut mid-frame at %d: %v, want ErrUnexpectedEOF or ErrBadFrame", cut, err)
		}
	}
}

// TestFrameDeclaredLengthBoundsAllocation: a header declaring the largest
// legal payload, followed by EOF or by a short run of payload bytes, is a
// torn stream, and reading it allocates in proportion to the bytes that
// arrived, never the declared length.
func TestFrameDeclaredLengthBoundsAllocation(t *testing.T) {
	for _, sent := range []int{0, payloadStep} {
		data := make([]byte, frameHeaderLen+sent)
		data[0] = byte(FrameSnapshot)
		binary.LittleEndian.PutUint32(data[1:], maxFrameBytes)
		fr := NewFrameReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := fr.Next()
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("%d payload bytes then EOF: %v, want io.ErrUnexpectedEOF", sent, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
			t.Fatalf("%d payload bytes then EOF allocated %d bytes", sent, alloc)
		}
	}
}

// TestFrameCorruption: single-byte corruption anywhere in a batch frame is
// a typed rejection (the payload is the CRC-framed WAL record), and frame-
// level garbage (unknown kind, oversize length, trailing bytes, short
// heartbeat) is ErrBadFrame.
func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, feedBatches()[0]); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := range frame {
		corrupt := append([]byte(nil), frame...)
		corrupt[i] ^= 0x01
		fr := NewFrameReader(bytes.NewReader(corrupt))
		for {
			_, err := fr.Next()
			if err == nil {
				// A flipped bit in the batch payload cannot decode: the
				// record is CRC-framed. A flip in the frame header either
				// changes the kind/length (typed error or torn read) or
				// shortens the stream. Nothing decodes cleanly.
				t.Fatalf("flip at byte %d: frame decoded cleanly", i)
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, ErrBadFrame) {
				break
			}
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}

	cases := map[string][]byte{
		"unknown kind":    {9, 0, 0, 0, 0},
		"oversize length": {byte(FrameBatch), 0xff, 0xff, 0xff, 0xff},
		"short heartbeat": append([]byte{byte(FrameHeartbeat), 4, 0, 0, 0}, 1, 2, 3, 4),
	}
	for name, stream := range cases {
		fr := NewFrameReader(bytes.NewReader(stream))
		if _, err := fr.Next(); !errors.Is(err, ErrBadFrame) && err != io.ErrUnexpectedEOF {
			t.Errorf("%s: %v, want ErrBadFrame", name, err)
		}
	}

	// A batch frame with trailing bytes after the record must be rejected:
	// accepting it would let an attacker smuggle a second, unframed record.
	rec := store.EncodeBatch(feedBatches()[0])
	padded := append(append([]byte(nil), rec...), 0xde, 0xad)
	var tr bytes.Buffer
	if err := writeFrame(&tr, FrameBatch, padded); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(tr.Bytes()))
	if _, err := fr.Next(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing bytes in batch frame: %v, want ErrBadFrame", err)
	}
}

// TestFrameReorderedDuplicated: the wire layer decodes reordered and
// duplicated batch frames (each is individually valid — ordering is not a
// transport property), and the chain validation at apply time is what
// rejects them. This pins the division of labor end to end with the real
// decoder in the loop.
func TestFrameReorderedDuplicated(t *testing.T) {
	batches := feedBatches()
	var buf bytes.Buffer
	// duplicate batch 0, then batch 1, then batch 0 again (reordered).
	for _, b := range []store.Batch{batches[0], batches[0], batches[1], batches[0]} {
		if err := WriteBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	var got []store.Batch
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Batch)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d frames, want 4", len(got))
	}
	// Chain check: starting at the snapshot epoch, only the in-order,
	// non-duplicated prefix chains; the duplicate and the reorder both
	// break PrevEpoch continuity exactly where apply would reject them.
	epoch := feedSnapshot().Epoch
	applied := 0
	for _, b := range got {
		if b.PrevEpoch() != epoch {
			break
		}
		epoch = b.Epoch
		applied++
	}
	if applied != 1 {
		t.Fatalf("chain accepted %d of the mangled batches, want exactly the first", applied)
	}
}

// FuzzFrameDecode: arbitrary bytes never panic the frame reader, and every
// decoded frame re-encodes to the exact bytes consumed (decode/encode
// bijectivity, inherited from the store codec's strictness).
func FuzzFrameDecode(f *testing.F) {
	f.Add(encodeFeed(f))
	f.Add([]byte{})
	f.Add([]byte{byte(FrameBatch), 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{9, 0, 0, 0, 0})
	hb := make([]byte, frameHeaderLen+heartbeatLen)
	hb[0] = byte(FrameHeartbeat)
	hb[1] = heartbeatLen
	f.Add(hb)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		off := 0
		for {
			frame, err := fr.Next()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			switch frame.Kind {
			case FrameSnapshot:
				if err := WriteSnapshot(&buf, frame.Snapshot); err != nil {
					t.Fatal(err)
				}
			case FrameBatch:
				if err := WriteBatch(&buf, frame.Batch); err != nil {
					t.Fatal(err)
				}
			case FrameHeartbeat:
				if err := WriteHeartbeat(&buf, frame.Epoch); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(buf.Bytes(), data[off:off+buf.Len()]) {
				t.Fatalf("frame at %d does not re-encode to its input bytes", off)
			}
			off += buf.Len()
		}
	})
}
