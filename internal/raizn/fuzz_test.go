package raizn

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the on-disk record decoders. The seed corpus
// (f.Add below and testdata/fuzz/<Target>/) replays as ordinary tests;
// run one target open-ended with, e.g.:
//
//	go test -run '^$' -fuzz '^FuzzDecodeHeader$' -fuzztime 30s ./internal/raizn/
//
// Each target checks that the decoder never panics, that whatever it
// accepts re-encodes to the same bytes, and that accepted values are
// safe for the recovery code that consumes them.

const fuzzSectorSize = 4096

// fuzzLayout is the stripe geometry payloadSectors sees (su = 16).
var fuzzLayout = &layout{n: 5, d: 4, su: 16}

func FuzzDecodeHeader(f *testing.F) {
	for _, r := range []record{
		{typ: recSuperblock, gen: 1, inline: (&superblock{version: 1, numDev: 5, su: 16}).encode()},
		{typ: recPartialParity, startLBA: 64, endLBA: 72, gen: 3, payload: make([]byte, 8*fuzzSectorSize)},
		{typ: recRelocData | recCheckpoint, startLBA: 8, endLBA: 9, gen: 2, payload: make([]byte, fuzzSectorSize)},
		{typ: recFlightBox, startLBA: 5000, gen: 9, payload: make([]byte, 5000)},
		{typ: recResetWAL, gen: 4, inline: encodeResetWAL(2)},
		// Mount hang reproducers: payload length -1, and a flight box
		// of negative byte length.
		{typ: recRelocData, startLBA: 10, endLBA: 9, gen: 1},
		{typ: recFlightBox, startLBA: -8192, gen: 1},
	} {
		f.Add(r.encode(fuzzSectorSize)[:fuzzSectorSize])
	}
	meta := (&record{typ: recPartialParity, startLBA: 5, endLBA: 5, gen: 1}).encodeHeaderMeta()
	f.Add(meta)
	f.Fuzz(func(t *testing.T, sector []byte) {
		r, ok := decodeHeader(sector)
		if !ok {
			return
		}
		if len(r.inline) > maxInline {
			t.Fatalf("inline payload %d bytes exceeds %d", len(r.inline), maxInline)
		}
		n := headerBytes + len(r.inline)
		if enc := r.encode(fuzzSectorSize); !bytes.Equal(enc[:n], sector[:n]) {
			t.Fatalf("header re-encodes differently:\n got %x\nwant %x", enc[:n], sector[:n])
		}
		np := r.payloadSectors(fuzzLayout, fuzzSectorSize)
		switch r.typ.base() {
		case recPartialParity:
			if np > fuzzLayout.su {
				t.Fatalf("partial-parity payload %d sectors exceeds a stripe unit", np)
			}
		case recFlightBox:
			// startLBA is the byte length: ceil(len/sector) sectors, or
			// negative (not a record) for a negative length.
			want := int64(-1)
			if r.startLBA >= 0 {
				want = r.startLBA / fuzzSectorSize
				if r.startLBA%fuzzSectorSize != 0 {
					want++
				}
			}
			if np != want {
				t.Fatalf("flight box of %d bytes: %d payload sectors, want %d", r.startLBA, np, want)
			}
		}
	})
}

func FuzzDecodeSuperblock(f *testing.F) {
	f.Add((&superblock{version: 1, arrayID: 5<<32 ^ 16<<16 ^ 3, numDev: 5, devIndex: 2, su: 16, physZones: 8, mdZones: 3}).encode())
	f.Add(make([]byte, 39))
	f.Fuzz(func(t *testing.T, inline []byte) {
		sb, ok := decodeSuperblock(inline)
		if !ok {
			return
		}
		if enc := sb.encode(); !bytes.Equal(enc[:36], inline[:36]) {
			t.Fatalf("superblock re-encodes differently:\n got %x\nwant %x", enc[:36], inline[:36])
		}
	})
}

func FuzzDecodeGenBlock(f *testing.F) {
	f.Add(encodeGenBlock(0, []uint64{1, 2, 3}))
	f.Add(encodeGenBlock(1, make([]uint64, gensPerBlock+7)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, inline []byte) {
		idx, gens, ok := decodeGenBlock(inline)
		if !ok {
			return
		}
		// Recovery indexes v.gen[idx*gensPerBlock+k] after checking only
		// the upper bound, so the product must be a valid non-negative
		// zone index.
		if idx < 0 || idx > (1<<32)/gensPerBlock {
			t.Fatalf("block index %d out of range", idx)
		}
		if len(gens) != (len(inline)-8)/8 {
			t.Fatalf("%d counters from %d bytes", len(gens), len(inline))
		}
		if idx == 0 && len(gens) <= gensPerBlock {
			n := 8 + 8*len(gens)
			if enc := encodeGenBlock(0, gens); !bytes.Equal(enc[:n], inline[:n]) {
				t.Fatal("generation block re-encodes differently")
			}
		}
	})
}

func FuzzDecodeResetWAL(f *testing.F) {
	f.Add(encodeResetWAL(0))
	f.Add(encodeResetWAL(7))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, inline []byte) {
		z, ok := decodeResetWAL(inline)
		if !ok {
			return
		}
		if !bytes.Equal(encodeResetWAL(z), inline[:8]) {
			t.Fatalf("reset WAL for zone %d re-encodes differently", z)
		}
	})
}

func FuzzDecodeChecksums(f *testing.F) {
	f.Add(encodeChecksums(1, 4, []uint32{0xdeadbeef, 1, 2, 3, 4}))
	f.Add(encodeChecksums(0, 0, nil))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, inline []byte) {
		z, first, crcs, ok := decodeChecksums(inline)
		if !ok {
			return
		}
		if z < 0 || first < 0 {
			t.Fatalf("negative zone %d or stripe %d", z, first)
		}
		enc := encodeChecksums(z, first, crcs)
		if len(enc) > len(inline) || !bytes.Equal(enc, inline[:len(enc)]) {
			t.Fatal("checksum record re-encodes differently")
		}
	})
}
