package raizn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Metadata is persisted as log-structured records in the reserved
// metadata zones (paper §4.3). Every record starts with a 32-byte header
// (Figure 3) padded to one sector, optionally followed by an external
// payload (partial parity or relocated data). Small metadata lives inline
// in the header sector.
//
// Layout deviation from Figure 3: the paper stores magic(4) type(4)
// start(8) end(8) gen(8); this implementation splits the type field into
// type(2) + inline-length(2) so inline payload sizes are self-describing.

const (
	mdMagic     = 0x5A52314E // "ZR1N"
	headerBytes = 32
	maxInline   = 4064 // sector(4096) - header(32)
)

// Record types.
type recType uint16

const (
	recSuperblock recType = iota + 1
	recGenCounters
	recResetWAL
	recPartialParity
	recRelocData
	recRelocParity
	recChecksums
	// recFlightBox carries a serialized flight-recorder black box
	// (internal/obs/flight). startLBA holds the box byte length; the box
	// rides as external payload sectors. The newest generation wins on
	// recovery; recover() itself ignores the record — the box is plain
	// forensic cargo, not array state.
	recFlightBox

	// recCheckpoint flags a record written by the metadata garbage
	// collector rather than by normal operation (paper Fig. 4).
	recCheckpoint recType = 0x80
)

func (t recType) base() recType { return t &^ recCheckpoint }
func (t recType) String() string {
	s := ""
	switch t.base() {
	case recSuperblock:
		s = "superblock"
	case recGenCounters:
		s = "gen-counters"
	case recResetWAL:
		s = "reset-wal"
	case recPartialParity:
		s = "partial-parity"
	case recRelocData:
		s = "reloc-data"
	case recRelocParity:
		s = "reloc-parity"
	case recChecksums:
		s = "stripe-checksums"
	case recFlightBox:
		s = "flight-box"
	default:
		s = fmt.Sprintf("recType(%d)", uint16(t))
	}
	if t&recCheckpoint != 0 {
		s += "+ckpt"
	}
	return s
}

// record is one decoded metadata log entry.
type record struct {
	typ      recType
	startLBA int64 // logical range the record describes
	endLBA   int64
	gen      uint64 // generation of the logical zone (or sequence number)
	inline   []byte // inline payload (<= maxInline)
	payload  []byte // external payload sectors, if any

	dev int   // device the record was read from (set by scan)
	pba int64 // absolute sector of the record header (set by scan)
}

// payloadSectors returns how many external payload sectors follow the
// header sector for this record type, derived from the header fields.
// A hostile or garbage header can make the result negative; callers
// treat that as "not a record".
func (r *record) payloadSectors(l *layout, sectorSize int) int64 {
	switch r.typ.base() {
	case recPartialParity:
		// Parity image bytes cover the affected intra-unit region(s):
		// min(write length, one stripe unit), rounded up to sectors.
		n := r.endLBA - r.startLBA
		if n > l.su {
			n = l.su
		}
		return n
	case recRelocData, recRelocParity:
		return r.endLBA - r.startLBA
	case recFlightBox:
		// startLBA is the box byte length, carried as payload sectors.
		if r.startLBA < 0 {
			return -1
		}
		ss := int64(sectorSize)
		return r.startLBA/ss + min(r.startLBA%ss, 1)
	default:
		return 0
	}
}

// encode serializes the record into whole sectors.
func (r *record) encode(sectorSize int) []byte {
	if len(r.inline) > maxInline {
		panic("raizn: inline payload too large")
	}
	nPayload := (len(r.payload) + sectorSize - 1) / sectorSize
	buf := make([]byte, (1+nPayload)*sectorSize)
	binary.LittleEndian.PutUint32(buf[0:4], mdMagic)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(r.typ))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(r.inline)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(r.startLBA))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(r.endLBA))
	binary.LittleEndian.PutUint64(buf[24:32], r.gen)
	copy(buf[headerBytes:], r.inline)
	copy(buf[sectorSize:], r.payload)
	return buf
}

// decodeHeader parses a header sector. It returns false if the sector
// does not begin with a valid record header.
func decodeHeader(sector []byte) (record, bool) {
	if len(sector) < headerBytes {
		return record{}, false
	}
	if binary.LittleEndian.Uint32(sector[0:4]) != mdMagic {
		return record{}, false
	}
	r := record{
		typ:      recType(binary.LittleEndian.Uint16(sector[4:6])),
		startLBA: int64(binary.LittleEndian.Uint64(sector[8:16])),
		endLBA:   int64(binary.LittleEndian.Uint64(sector[16:24])),
		gen:      binary.LittleEndian.Uint64(sector[24:32]),
	}
	n := int(binary.LittleEndian.Uint16(sector[6:8]))
	if n > maxInline || headerBytes+n > len(sector) {
		return record{}, false
	}
	r.inline = append([]byte(nil), sector[headerBytes:headerBytes+n]...)
	return r, true
}

// mdKind selects which metadata log a record belongs to. Partial parity
// gets its own zone so its churn does not force GC of the rarely-updated
// general metadata (paper §4.3).
type mdKind int

const (
	mdGeneral mdKind = iota
	mdParity
	mdKinds
)

func kindOf(t recType) mdKind {
	if t.base() == recPartialParity {
		return mdParity
	}
	return mdGeneral
}

var errMDFull = errors.New("raizn: metadata zone out of space mid-GC")

// mdManager manages one device's reserved metadata zones: one active zone
// per kind plus a pool of swap zones used for garbage collection.
//
// Concurrency: m.mu protects the role assignments and serializes zone
// appends; it is NEVER held across a blocking wait. While a GC roll-over
// is in progress (gcBusy), concurrent appends park on the vclock-aware
// condition so simulated time keeps advancing.
type mdManager struct {
	vol *volumeCore // for checkpoint callbacks and geometry
	dev int

	mu     sync.Mutex
	cond   *vclock.Cond
	gcBusy bool
	active [mdKinds]int // physical zone index per kind
	swap   []int        // free metadata zone indices
}

// volumeCore is the narrow view of Volume the metadata manager needs; it
// exists to keep the dependency direction explicit.
type volumeCore = Volume

func newMDManager(v *Volume, dev int) *mdManager {
	m := &mdManager{vol: v, dev: dev}
	m.cond = v.clk.NewCond(&m.mu)
	m.active[mdGeneral] = v.lt.mdZoneIndex(0)
	m.active[mdParity] = v.lt.mdZoneIndex(1)
	for i := 2; i < v.lt.mdZones; i++ {
		m.swap = append(m.swap, v.lt.mdZoneIndex(i))
	}
	return m
}

// append writes a record to the device's metadata log of the appropriate
// kind, garbage collecting into a swap zone if the active zone is full.
// It returns the completion future and the absolute PBA of the record
// header. flags is applied to the device append (FUA for write-ahead
// logging).
func (m *mdManager) append(r *record, flags zns.Flag) (*vclock.Future, int64, error) {
	return m.appendSpan(nil, r, flags)
}

// appendSpan is append with a tracing span; the device marks the span's
// queue and media phases and ends it when the append completes.
func (m *mdManager) appendSpan(sp *obs.Span, r *record, flags zns.Flag) (*vclock.Future, int64, error) {
	return m.appendRecord(sp, r, flags, false)
}

// appendRecord is appendSpan with the record's header placement chosen:
// inlineMeta puts the header in the per-block metadata of the first
// payload sector (ParityInlineMeta, §5.4) instead of a header sector.
func (m *mdManager) appendRecord(sp *obs.Span, r *record, flags zns.Flag, inlineMeta bool) (*vclock.Future, int64, error) {
	dev := m.vol.devs[m.dev]
	if dev == nil {
		sp.End(zns.ErrDeviceFailed)
		return nil, -1, zns.ErrDeviceFailed
	}
	var buf, meta []byte
	hdr := int64(1) // header sectors
	if inlineMeta {
		buf, meta, hdr = r.encodePayloadOnly(m.vol.sectorSize), r.encodeHeaderMeta(), 0
	} else {
		buf = r.encode(m.vol.sectorSize)
	}
	need := int64(len(buf) / m.vol.sectorSize)
	kind := kindOf(r.typ)

	m.mu.Lock()
	for attempt := 0; attempt < 3; attempt++ {
		for m.gcBusy {
			m.cond.Wait()
		}
		z := m.active[kind]
		zd := dev.Zone(z)
		remaining := dev.Config().ZoneCap - (zd.WP - dev.ZoneStart(z))
		if remaining >= need && zd.State != zns.ZoneFull {
			var pba int64
			var fut *vclock.Future
			if inlineMeta {
				pba, fut = dev.AppendMetaSpan(sp, z, buf, meta, flags)
			} else {
				pba, fut = dev.AppendSpan(sp, z, buf, flags)
			}
			if pba >= 0 {
				m.mu.Unlock()
				m.vol.accountMDBytes(r.typ, hdr, need-hdr)
				m.vol.recordMDEvent(m.dev, z, r.typ, hdr, need-hdr)
				name := "raizn.md.append"
				if r.typ.base() == recPartialParity {
					name = "raizn.pp.write"
				}
				m.vol.fireHook(name, m.dev, z, pba)
				return fut, pba, nil
			}
			// Fall through to GC on append failure.
		}
		if err := m.gcSlotLocked(kind); err != nil {
			m.mu.Unlock()
			sp.End(err)
			return nil, -1, err
		}
	}
	m.mu.Unlock()
	sp.End(errMDFull)
	return nil, -1, errMDFull
}

// gcSlotLocked performs the GC roll-over for kind, temporarily releasing
// m.mu across the blocking device IO. Caller holds m.mu on entry and on
// return.
func (m *mdManager) gcSlotLocked(kind mdKind) error {
	for m.gcBusy {
		m.cond.Wait()
	}
	m.gcBusy = true
	m.mu.Unlock()
	err := m.gc(kind)
	m.mu.Lock()
	m.gcBusy = false
	m.cond.Broadcast()
	return err
}

// forceGC runs one GC roll-over of the given kind (used by Maintain).
func (m *mdManager) forceGC(kind mdKind) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gcSlotLocked(kind)
}

// gc rolls the active zone of kind over to a swap zone, checkpointing
// live metadata into it, then resets the old zone into the swap pool
// (paper Fig. 4). Called with gcBusy set and m.mu released; gcBusy
// excludes concurrent appends and role changes.
func (m *mdManager) gc(kind mdKind) error {
	m.vol.stats.metadataGCs.Add(1)
	m.mu.Lock()
	if len(m.swap) == 0 {
		m.mu.Unlock()
		return errMDFull
	}
	dev := m.vol.devs[m.dev]
	if dev == nil {
		m.mu.Unlock()
		return zns.ErrDeviceFailed
	}
	old := m.active[kind]
	m.active[kind] = m.swap[len(m.swap)-1]
	m.swap = m.swap[:len(m.swap)-1]
	newActive := m.active[kind]
	m.mu.Unlock()

	// Checkpoint live metadata from memory into the new active zone.
	var futs []*vclock.Future
	for _, r := range m.vol.checkpointRecords(m.dev, kind) {
		r.typ |= recCheckpoint
		buf := r.encode(m.vol.sectorSize)
		_, fut := dev.Append(newActive, buf, 0)
		sectors := int64(len(buf) / m.vol.sectorSize)
		m.vol.accountMDBytes(r.typ, 1, sectors-1)
		m.vol.recordMDEvent(m.dev, newActive, r.typ, 1, sectors-1)
		futs = append(futs, fut)
	}
	// The checkpoint must be durable before the old zone disappears;
	// otherwise a crash could lose both copies.
	futs = append(futs, dev.Flush())
	if err := vclock.WaitAll(futs...); err != nil {
		return err
	}
	if err := dev.ResetZone(old).Wait(); err != nil {
		return err
	}
	m.mu.Lock()
	m.swap = append(m.swap, old)
	m.mu.Unlock()
	return nil
}

// scan reads every record from all metadata zones of the device,
// tolerating torn tails (records cut off by the zone write pointer are
// dropped). A header whose payload length is negative (or zero for an
// inline-meta record, which is all payload) is not a record, so the
// scan always moves forward; lengths are compared against the sectors
// left before the write pointer, which cannot overflow.
func scanMDZones(dev *zns.Device, lt *layout, sectorSize int) ([]record, error) {
	var out []record
	for i := 0; i < lt.mdZones; i++ {
		z := lt.mdZoneIndex(i)
		zd := dev.Zone(z)
		start := dev.ZoneStart(z)
		wp := zd.WP
		sector := make([]byte, sectorSize)
		for pba := start; pba < wp; {
			// Inline-meta records (ParityInlineMeta, §5.4) carry their header
			// in the per-block metadata of their first payload sector.
			if dev.Config().MetaBytes >= headerBytes {
				if mb, _ := dev.ReadBlockMeta(pba); mb != nil {
					if r, ok := decodeHeader(mb); ok {
						np := r.payloadSectors(lt, sectorSize)
						if np > wp-pba {
							break // torn record
						}
						if np > 0 {
							r.payload = make([]byte, np*int64(sectorSize))
							if err := dev.Read(pba, r.payload).Wait(); err != nil {
								return nil, fmt.Errorf("raizn: metadata payload read: %w", err)
							}
							r.pba = pba
							out = append(out, r)
							pba += np
							continue
						}
					}
				}
			}
			if err := dev.Read(pba, sector).Wait(); err != nil {
				return nil, fmt.Errorf("raizn: metadata scan zone %d: %w", z, err)
			}
			r, ok := decodeHeader(sector)
			np := r.payloadSectors(lt, sectorSize)
			if !ok || np < 0 {
				// Not a record header: skip one sector. (Occurs only
				// if a torn multi-sector record left payload sectors
				// behind a dropped header, which prefix persistence
				// prevents; scanning defensively regardless.)
				pba++
				continue
			}
			if np > wp-pba-1 {
				// Torn record: header persisted but payload lost.
				break
			}
			if np > 0 {
				r.payload = make([]byte, np*int64(sectorSize))
				if err := dev.Read(pba+1, r.payload).Wait(); err != nil {
					return nil, fmt.Errorf("raizn: metadata payload read: %w", err)
				}
			}
			r.pba = pba
			out = append(out, r)
			pba += 1 + np
		}
	}
	return out, nil
}

// genCounterBlock encodes a block of generation counters (paper §4.3:
// 32-byte header + 508 8-byte counters, the whole 4 KiB persisted on
// every update). blockIdx selects which 508-zone window this block
// covers.
const gensPerBlock = 507 // one slot is used by the block index

func encodeGenBlock(blockIdx int, gens []uint64) []byte {
	buf := make([]byte, maxInline)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(blockIdx))
	lo := blockIdx * gensPerBlock
	for i := 0; i < gensPerBlock && lo+i < len(gens); i++ {
		binary.LittleEndian.PutUint64(buf[8+8*i:16+8*i], gens[lo+i])
	}
	return buf
}

// maxGenBlocks bounds a decoded block index: superblocks count zones in
// a uint32, so a block whose first zone lies past that is garbage (and
// blockIdx*gensPerBlock could overflow in recovery).
const maxGenBlocks = math.MaxUint32/gensPerBlock + 1

func decodeGenBlock(inline []byte) (blockIdx int, gens []uint64, ok bool) {
	if len(inline) < 8 {
		return 0, nil, false
	}
	idx := binary.LittleEndian.Uint64(inline[0:8])
	if idx >= maxGenBlocks {
		return 0, nil, false
	}
	blockIdx = int(idx)
	n := (len(inline) - 8) / 8
	gens = make([]uint64, n)
	for i := 0; i < n; i++ {
		gens[i] = binary.LittleEndian.Uint64(inline[8+8*i : 16+8*i])
	}
	return blockIdx, gens, true
}

// superblock is the per-device array descriptor, written at create time
// and checkpointed by metadata GC.
type superblock struct {
	version   uint32
	arrayID   uint64
	numDev    uint32
	devIndex  uint32
	su        int64
	physZones uint32 // total physical zones expected on the device
	mdZones   uint32
}

func (sb *superblock) encode() []byte {
	buf := make([]byte, 40)
	binary.LittleEndian.PutUint32(buf[0:4], sb.version)
	binary.LittleEndian.PutUint64(buf[4:12], sb.arrayID)
	binary.LittleEndian.PutUint32(buf[12:16], sb.numDev)
	binary.LittleEndian.PutUint32(buf[16:20], sb.devIndex)
	binary.LittleEndian.PutUint64(buf[20:28], uint64(sb.su))
	binary.LittleEndian.PutUint32(buf[28:32], sb.physZones)
	binary.LittleEndian.PutUint32(buf[32:36], sb.mdZones)
	return buf
}

func decodeSuperblock(inline []byte) (superblock, bool) {
	if len(inline) < 40 {
		return superblock{}, false
	}
	return superblock{
		version:   binary.LittleEndian.Uint32(inline[0:4]),
		arrayID:   binary.LittleEndian.Uint64(inline[4:12]),
		numDev:    binary.LittleEndian.Uint32(inline[12:16]),
		devIndex:  binary.LittleEndian.Uint32(inline[16:20]),
		su:        int64(binary.LittleEndian.Uint64(inline[20:28])),
		physZones: binary.LittleEndian.Uint32(inline[28:32]),
		mdZones:   binary.LittleEndian.Uint32(inline[32:36]),
	}, true
}

// resetWAL payload: the logical zone index being reset.
func encodeResetWAL(zone int) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(zone))
	return buf
}

func decodeResetWAL(inline []byte) (int, bool) {
	if len(inline) < 8 {
		return 0, false
	}
	return int(binary.LittleEndian.Uint64(inline)), true
}
