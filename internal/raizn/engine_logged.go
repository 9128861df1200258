package raizn

import (
	"errors"

	"raizn/internal/obs"
	"raizn/internal/ppengine"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// loggedEngine adapts the paper's partial-parity logging (§5.1) and its
// two §5.4 variants (ParityLog, ParityInlineMeta, ParityZRWA) to the
// ppengine.Engine interface. It is a thin shim over the volume's
// metadata managers: Persist appends a recPartialParity record to the
// parity metadata zone of the target device. Stripe lifecycle
// notifications are no-ops — logged records are reclaimed wholesale by
// the metadata garbage collector, and recovery filters stale ones by
// generation and stripe state.
type loggedEngine struct {
	v          *Volume
	inlineMeta bool // ParityInlineMeta: record header in per-block metadata
	inPlace    bool // ParityZRWA: parity prefix updated in place, no PP images
}

func (le *loggedEngine) InPlaceParityPrefix() bool { return le.inPlace }

// Persist appends the image as a §5.1 log record.
func (le *loggedEngine) Persist(a ppengine.Append) (*vclock.Future, bool) {
	return le.v.logPartialParity(a, le.inlineMeta), true
}

// logPartialParity appends a partial-parity image as a §5.1 log record
// to the parity metadata zone of device a.Dev: the logged engine's
// Persist, and the zraid engine's backpressure fallback. inlineMeta puts
// the header in per-block metadata (§5.4). A failed parity device
// persists nothing (the data units carry the write, §4.2), so the
// result is nil — there is nothing to wait on.
func (v *Volume) logPartialParity(a ppengine.Append, inlineMeta bool) *vclock.Future {
	m := v.mdm(a.Dev)
	if m == nil {
		return nil // device failed: degraded
	}
	rec := &record{
		typ:      recPartialParity,
		startLBA: a.StartLBA,
		endLBA:   a.EndLBA,
		gen:      a.Gen,
		payload:  a.Payload,
	}
	child := a.Span.Child(obs.OpMDAppend, a.Dev, a.StartLBA, int64(len(a.Payload)))
	fut, _, err := m.appendRecord(child, rec, 0, inlineMeta)
	if err != nil {
		child.End(err)
		if errors.Is(err, zns.ErrDeviceFailed) {
			v.noteDeviceError(a.Dev, err)
			return nil
		}
		return v.clk.Completed(err)
	}
	return fut
}

func (le *loggedEngine) StripeClosed(zone int, stripe int64) {}
func (le *loggedEngine) ZoneReset(zone int)                  {}

// Scan returns nil: logged records surface through the ordinary
// metadata-zone scan at mount.
func (le *loggedEngine) Scan() ([]ppengine.Record, error) { return nil, nil }

// Stats derives the byte counters from the volume's layered WA
// accounting: every logged partial-parity byte is programmed to flash.
func (le *loggedEngine) Stats() ppengine.Stats {
	return ppengine.Stats{
		PermanentBytes: le.v.stats.waPPHeaderBytes.Load() + le.v.stats.waPPPayloadBytes.Load(),
	}
}

func (le *loggedEngine) Maintain() error { return nil }
func (le *loggedEngine) Format() error   { return nil }
