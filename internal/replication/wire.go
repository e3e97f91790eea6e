// Package replication streams a primary engine's committed mutation
// batches to read replicas.
//
// The design reuses the durability layer end to end. A primary wraps each
// dataset's store.Store in a Tap: every batch the engine fsyncs through
// AppendBatch is published — post-fsync, pre-rotation — to subscribed
// feeds. A replica join is exactly crash recovery run over the network:
// Subscribe calls the inner store's Recover and ships the newest
// checkpoint plus the WAL tail, then live batches as they commit. The
// follower applies them through Engine.ApplyReplicated — the same delta
// commit Apply makes and recovery replays through — so a replica at epoch E
// answers every query bit-identically to the primary's pinned-epoch-E
// snapshot.
//
// The wire format is a length-prefixed frame stream over a long-lived
// HTTP response body:
//
//	frame    = [kind u8][len u32 LE][payload]
//	kind 1   = snapshot:  payload is one store.EncodeSnapshot image
//	kind 2   = batch:     payload is one store.EncodeBatch record
//	kind 3   = heartbeat: payload is the primary's current epoch (u64 LE)
//
// Batch payloads carry the WAL record verbatim — CRC32C frame included —
// so the feed inherits the codec's strictness: a flipped bit is a
// detected-corrupt frame, never a misparsed batch. PrevEpoch chain
// validation happens at apply time (ErrReplicaGap), which catches
// reordered, duplicated and skipped batches regardless of how the
// transport mangled them.
package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/store"
)

// FrameKind tags one feed frame. Values are part of the wire format and
// must never be renumbered.
type FrameKind byte

const (
	// FrameSnapshot carries a full checkpoint image (store.EncodeSnapshot).
	FrameSnapshot FrameKind = 1
	// FrameBatch carries one committed WAL record (store.EncodeBatch).
	FrameBatch FrameKind = 2
	// FrameHeartbeat carries the primary's current epoch; it keeps idle
	// connections alive and lets followers measure lag while no mutations
	// flow.
	FrameHeartbeat FrameKind = 3
)

const (
	frameHeaderLen = 5 // kind u8 + len u32
	// maxFrameBytes bounds a frame payload: large enough for a checkpoint
	// of ~64M edges, small enough that a corrupt length field cannot make
	// a follower allocate unbounded memory.
	maxFrameBytes = 1 << 30
	// payloadStep is the first read of a frame payload; the buffer grows
	// from it as bytes arrive (see readPayload), so a corrupt or hostile
	// length field costs memory in proportion to the bytes actually sent.
	payloadStep  = 1 << 20
	heartbeatLen = 8
)

// ErrBadFrame reports a feed frame that fails strict decoding: unknown
// kind, length out of range, or a payload the store codec rejects. A
// follower treats it as a broken connection and reconnects; it never
// applies a partially-decoded frame.
var ErrBadFrame = errors.New("replication: bad feed frame")

// Frame is one decoded feed frame; Kind selects which field is set.
type Frame struct {
	Kind FrameKind
	// Snapshot is set for FrameSnapshot.
	Snapshot *store.Snapshot
	// Batch is set for FrameBatch.
	Batch store.Batch
	// Epoch is set for FrameHeartbeat: the primary's epoch at send time.
	Epoch uint64
}

func writeFrame(w io.Writer, kind FrameKind, payload []byte) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteSnapshot writes one snapshot frame.
func WriteSnapshot(w io.Writer, s *store.Snapshot) error {
	return writeFrame(w, FrameSnapshot, store.EncodeSnapshot(s))
}

// WriteBatch writes one batch frame.
func WriteBatch(w io.Writer, b store.Batch) error {
	return writeFrame(w, FrameBatch, store.EncodeBatch(b))
}

// WriteHeartbeat writes one heartbeat frame carrying the primary's epoch.
func WriteHeartbeat(w io.Writer, epoch uint64) error {
	var payload [heartbeatLen]byte
	binary.LittleEndian.PutUint64(payload[:], epoch)
	return writeFrame(w, FrameHeartbeat, payload[:])
}

// FrameReader decodes a feed frame stream. It is strict: every frame must
// decode completely and exactly, or Next returns an error wrapping
// ErrBadFrame — garbage can terminate a stream but never smuggle a batch
// through. Transport errors (including a connection cut mid-frame) pass
// through as the underlying read error.
type FrameReader struct {
	r io.Reader
}

// NewFrameReader wraps r. The reader should be buffered by the caller if
// the source is unbuffered; FrameReader itself reads exact frame lengths.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next decodes the next frame. io.EOF is returned only at a clean frame
// boundary; a stream cut mid-frame is io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return Frame{}, err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	kind := FrameKind(hdr[0])
	plen := int64(binary.LittleEndian.Uint32(hdr[1:]))
	switch kind {
	case FrameSnapshot, FrameBatch, FrameHeartbeat:
	default:
		return Frame{}, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, hdr[0])
	}
	if plen > maxFrameBytes {
		return Frame{}, fmt.Errorf("%w: payload length %d out of range", ErrBadFrame, plen)
	}
	payload, err := readPayload(fr.r, int(plen))
	if err != nil {
		return Frame{}, err
	}
	switch kind {
	case FrameSnapshot:
		s, err := store.DecodeSnapshot(payload)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: snapshot: %v", ErrBadFrame, err)
		}
		return Frame{Kind: FrameSnapshot, Snapshot: s}, nil
	case FrameBatch:
		b, n, err := store.DecodeRecord(payload)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: batch: %v", ErrBadFrame, err)
		}
		if n != len(payload) {
			return Frame{}, fmt.Errorf("%w: batch frame carries %d trailing bytes", ErrBadFrame, len(payload)-n)
		}
		return Frame{Kind: FrameBatch, Batch: b}, nil
	default: // FrameHeartbeat
		if len(payload) != heartbeatLen {
			return Frame{}, fmt.Errorf("%w: heartbeat payload %d bytes", ErrBadFrame, len(payload))
		}
		return Frame{Kind: FrameHeartbeat, Epoch: binary.LittleEndian.Uint64(payload)}, nil
	}
}

// readPayload reads exactly n payload bytes. The buffer starts at
// payloadStep and doubles only when the bytes already read fill it, so
// memory tracks what the stream delivered rather than the declared n. A
// stream that ends early is io.ErrUnexpectedEOF.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, payloadStep))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}
