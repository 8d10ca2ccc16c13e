package core

import (
	"io"
	"strings"
	"testing"
)

// countingReader serves a gob stream whose first message declares size
// bytes, followed by that many zero bytes, and records how many bytes
// its reader took.
type countingReader struct {
	header []byte
	size   int64
	read   int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	total := int64(len(c.header)) + c.size
	if c.read >= total {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), total-c.read))
	for i := range p[:n] {
		if at := c.read + int64(i); at < int64(len(c.header)) {
			p[i] = c.header[at]
		} else {
			p[i] = 0
		}
	}
	c.read += int64(n)
	return n, nil
}

// gobLength encodes n as gob encodes a message length: a byte count,
// negated, then the big-endian bytes.
func gobLength(n uint64) []byte {
	var be []byte
	for ; n > 0; n >>= 8 {
		be = append([]byte{byte(n)}, be...)
	}
	return append([]byte{byte(-len(be))}, be...)
}

// TestDecodeModelBoundsRead feeds DecodeModel a blob that claims a
// message larger than the cap: it must be refused without reading more
// than cap+1 bytes.
func TestDecodeModelBoundsRead(t *testing.T) {
	size := int64(maxModelBytes + 64<<10)
	src := &countingReader{header: gobLength(uint64(size)), size: size}
	_, err := DecodeModel(src)
	if src.read > maxModelBytes+1 {
		t.Fatalf("read %d bytes of an oversized blob, cap is %d", src.read, maxModelBytes)
	}
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized blob: err = %v, want the size limit", err)
	}
}
