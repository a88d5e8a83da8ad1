package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"camus/internal/formats"
)

// The load generator writes wire bytes with this allocation-free writer
// instead of formats.EncodeITCHFeed, whose per-field value maps would
// make the generator, not the program, dominate the run. checkWriters
// proves at start-up that both produce identical bytes.

// appendITCH appends a MoldUDP datagram carrying orders (big-endian,
// space-padded strings, the layout of formats.ITCH).
func appendITCH(dst []byte, session string, seq uint64, orders []formats.Order) []byte {
	dst = appendPadded(dst, session, 10)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(orders)))
	for i := range orders {
		o := &orders[i]
		bs := byte('S')
		if o.Buy {
			bs = 'B'
		}
		dst = append(dst, 'A')
		dst = binary.BigEndian.AppendUint16(dst, uint16(o.Locate))
		dst = binary.BigEndian.AppendUint16(dst, 0)
		ts := uint64(o.TimeNS) & 0xFFFFFFFFFFFF
		dst = append(dst, byte(ts>>40), byte(ts>>32), byte(ts>>24), byte(ts>>16), byte(ts>>8), byte(ts))
		dst = binary.BigEndian.AppendUint64(dst, o.RefNum)
		dst = append(dst, bs)
		dst = binary.BigEndian.AppendUint32(dst, uint32(o.Shares))
		dst = binary.BigEndian.AppendUint32(dst, uint32(o.Price))
		dst = appendPadded(dst, o.Stock, 8)
	}
	return dst
}

func appendPadded(dst []byte, s string, n int) []byte {
	dst = append(dst, s...)
	for i := len(s); i < n; i++ {
		dst = append(dst, ' ')
	}
	return dst
}

// checkWriters compares the writer with the formats encoder on random
// inputs.
func checkWriters() error {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		orders := make([]formats.Order, 1+r.Intn(8))
		ptrs := make([]*formats.Order, len(orders))
		for j := range orders {
			orders[j] = formats.Order{
				Stock: symbol(r.Intn(itchSymbols)), Price: r.Int63n(1 << 32), Shares: r.Int63n(1 << 32),
				Buy: r.Intn(2) == 0, RefNum: r.Uint64(), TimeNS: r.Int63(), Locate: r.Intn(1 << 16),
			}
			ptrs[j] = &orders[j]
		}
		want, err := formats.EncodeITCHFeed("BENCH", uint64(i), ptrs)
		if err != nil {
			return err
		}
		if got := appendITCH(nil, "BENCH", uint64(i), orders); !bytes.Equal(got, want) {
			return fmt.Errorf("ITCH writer differs from formats.EncodeITCHFeed:\n got %x\nwant %x", got, want)
		}
	}
	return nil
}
