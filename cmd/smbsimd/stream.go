package main

import (
	"bufio"
	"net"

	"smbm/internal/traffic"
)

// streamBufSize is the daemon's socket read buffer: large enough that
// reading a long stream costs few read calls per packet.
const streamBufSize = 64 << 10

// streamOpen wraps one stream connection in the traffic binary-framing
// cursor ("SMBT1\n" magic, slot-count header, 8-byte records), reading
// through br, which is reset onto conn. The returned slot count is the
// length the client announced; the cursor fails mid-stream if the
// client disconnects or sends a malformed record, which the stream loop
// turns into a clean cut at the last complete slot.
func streamOpen(br *bufio.Reader, conn net.Conn) (*traffic.BinaryStream, int, error) {
	br.Reset(conn)
	return traffic.OpenBinary(br)
}
