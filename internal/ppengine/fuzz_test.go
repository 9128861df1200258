package ppengine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeSlot fuzzes the PP-zone slot decoder. The seed corpus (f.Add
// below and testdata/fuzz/FuzzDecodeSlot/) replays as ordinary tests;
// run it open-ended with:
//
//	go test -run '^$' -fuzz '^FuzzDecodeSlot$' -fuzztime 20s ./internal/ppengine/
//
// With reseal set, the target rewrites the slot CRC before decoding, so
// the fuzzer reaches the field decoding behind the checksum. The decoder
// must never panic; a slot it accepts must carry at most one stripe unit
// of payload, not alias the read buffer (Scan reuses it), and re-encode
// to the same checksummed bytes.
func FuzzDecodeSlot(f *testing.F) {
	const ss, su = 64, 4
	e := &zraidEngine{cfg: ZRAIDConfig{SectorSize: ss, SU: su}, stride: su + 1}
	for _, sl := range []zrSlot{
		{seq: 1, rec: Record{Zone: 3, Stripe: 9, StartLBA: 576, EndLBA: 579, Gen: 11, Payload: bytes.Repeat([]byte{0xAB}, 3*ss)}},
		{seq: 42, rec: Record{Zone: 0, Stripe: 0, StartLBA: 0, EndLBA: 4, Gen: 1, Payload: bytes.Repeat([]byte{0x5C}, su*ss)}},
		{seq: 7, rec: Record{Zone: 1, Stripe: 2, StartLBA: 40, EndLBA: 40, Gen: 2}},
	} {
		buf := e.encodeSlot(&sl)
		f.Add(buf, false)
		f.Add(buf[:slotHdrSize], true)
	}
	f.Fuzz(func(t *testing.T, buf []byte, reseal bool) {
		if reseal && len(buf) >= slotHdrSize {
			n := int64(binary.LittleEndian.Uint32(buf[12:16]))
			if n <= su && int64(len(buf)) >= (1+n)*ss {
				buf = append([]byte(nil), buf...) // the engine owns the input
				crc := crc32.Update(0, crcTable, buf[8:slotHdrSize])
				crc = crc32.Update(crc, crcTable, buf[ss:(1+n)*ss])
				binary.LittleEndian.PutUint32(buf[4:8], crc)
			}
		}
		rec, seq, ok := decodeSlot(buf, ss, su)
		if !ok {
			return
		}
		n := len(rec.Payload)
		if n%ss != 0 || n > su*ss {
			t.Fatalf("payload of %d bytes: not whole sectors within a stripe unit", n)
		}
		if n > 0 && &rec.Payload[0] == &buf[ss] {
			t.Fatal("payload aliases the read buffer")
		}
		enc := e.encodeSlot(&zrSlot{seq: seq, rec: rec})
		if !bytes.Equal(enc[:slotHdrSize], buf[:slotHdrSize]) || !bytes.Equal(enc[ss:ss+n], buf[ss:ss+n]) {
			t.Fatalf("slot re-encodes differently:\n got %x\nwant %x", enc[:slotHdrSize], buf[:slotHdrSize])
		}
	})
}
