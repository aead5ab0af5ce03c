package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"anonconsensus/internal/giraf"
	"anonconsensus/internal/values"
	"anonconsensus/internal/wire"
)

// wireStats summarizes the codec pass over reconstructed envelopes.
type wireStats struct {
	frames, bytes  int
	refs, payloads int // payloads sent as references / in all envelopes
	encode, decode time.Duration
}

// setFingerprint fingerprints a canonical-order payload set the way
// giraf does for the envelopes it broadcasts.
func setFingerprint(pays []giraf.Payload) values.Fingerprint {
	var h values.Hasher
	h.WriteString("E")
	for _, p := range pays {
		if f, ok := p.(giraf.Fingerprinted); ok {
			h.WriteFingerprint(f.PayloadFingerprint())
		} else {
			h.WriteFingerprint(values.FingerprintString(p.PayloadKey()))
		}
	}
	return h.Sum()
}

// wirePass pushes every process's reconstructed envelope stream through
// the epoch-tagged delta codec, one stream per (instance, process) as on
// a mux connection, and checks that each decodes back to what was sent.
// The mux's own frames are not observable from outside the program, so
// these are the envelopes the traced automata would have broadcast.
//
// The decode side reads with wire.ReadFrame, wire.DecodeDeltaEnvelopeEpoch
// and a giraf.ResolveTable, which is the mux reader's own path:
// wire.EnvelopeReader accepts only the untagged (epoch-0) frame form.
func wirePass(insts []*instTrace) (wireStats, error) {
	type stream struct {
		epoch uint64
		envs  []giraf.Envelope
		buf   bytes.Buffer
	}
	var streams []*stream
	var st wireStats
	for e, it := range insts {
		for _, envs := range it.envs {
			s := &stream{epoch: uint64(e) + 1, envs: envs}
			for i := range s.envs {
				s.envs[i].SetFingerprint = setFingerprint(s.envs[i].Payloads)
				st.payloads += len(s.envs[i].Payloads)
			}
			streams = append(streams, s)
		}
	}

	start := time.Now()
	for _, s := range streams {
		w := wire.NewEnvelopeWriterEpoch(&s.buf, s.epoch)
		for _, env := range s.envs {
			if err := w.WriteEnvelope(env); err != nil {
				return st, fmt.Errorf("wire pass: encode: %w", err)
			}
		}
		st.frames += w.FramesOut
		st.bytes += w.BytesOut
		st.refs += w.PayloadsElided
	}
	st.encode = time.Since(start)

	decoded := make([][]giraf.Envelope, len(streams))
	start = time.Now()
	for i, s := range streams {
		r := bytes.NewReader(s.buf.Bytes())
		table := giraf.NewResolveTable()
		for {
			frame, err := wire.ReadFrame(r)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return st, fmt.Errorf("wire pass: read: %w", err)
			}
			delta, epoch, err := wire.DecodeDeltaEnvelopeEpoch(frame)
			if err != nil {
				return st, fmt.Errorf("wire pass: decode: %w", err)
			}
			if epoch != s.epoch {
				return st, fmt.Errorf("wire pass: frame tagged epoch %d on stream %d", epoch, s.epoch)
			}
			full, err := table.Resolve(delta)
			if err != nil {
				return st, fmt.Errorf("wire pass: resolve: %w", err)
			}
			decoded[i] = append(decoded[i], full)
		}
	}
	st.decode = time.Since(start)

	for i, s := range streams {
		if len(decoded[i]) != len(s.envs) {
			return st, fmt.Errorf("wire pass: stream %d: %d frames decoded, %d sent", s.epoch, len(decoded[i]), len(s.envs))
		}
		for j, got := range decoded[i] {
			if !sameEnvelope(got, s.envs[j]) {
				return st, fmt.Errorf("wire pass: stream %d frame %d decoded to a different envelope", s.epoch, j)
			}
		}
	}
	return st, nil
}

func sameEnvelope(a, b giraf.Envelope) bool {
	if a.Round != b.Round || a.SetFingerprint != b.SetFingerprint || len(a.Payloads) != len(b.Payloads) {
		return false
	}
	for i := range a.Payloads {
		if a.Payloads[i].PayloadKey() != b.Payloads[i].PayloadKey() {
			return false
		}
	}
	return true
}
