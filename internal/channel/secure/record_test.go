package secure

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countingConn counts the transport writes a Conn makes. A write is
// counted before it is issued, so a peer that has received the bytes
// always sees the count.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedPair establishes a channel over net.Pipe with each end's
// transport counted, and returns the client's raw end so a test can
// write bytes the server reads as records.
func countedPair(t testing.TB) (cc, sc *Conn, rawC *countingConn) {
	t.Helper()
	a, b := net.Pipe()
	rawC, rawS := &countingConn{Conn: a}, &countingConn{Conn: b}
	var wg sync.WaitGroup
	var ce, se error
	wg.Add(2)
	go func() { defer wg.Done(); cc, ce = Client(rawC, IdentityFromSeed("c")) }()
	go func() { defer wg.Done(); sc, se = Server(rawS, IdentityFromSeed("s")) }()
	wg.Wait()
	if ce != nil || se != nil {
		t.Fatalf("handshake: client=%v server=%v", ce, se)
	}
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return cc, sc, rawC
}

// sealRecord builds the wire bytes of cc's next record by hand —
// len ‖ AES-GCM(counter nonce) — and advances cc's send counter as a
// Write would.
func sealRecord(cc *Conn, p []byte) (hdr, ct []byte) {
	nonce := make([]byte, 12)
	binary.BigEndian.PutUint64(nonce[4:], cc.sendSeq)
	cc.sendSeq++
	ct = cc.send.Seal(nil, nonce, p, nil)
	hdr = binary.BigEndian.AppendUint32(nil, uint32(len(ct)))
	return hdr, ct
}

// readAll drains sc until the stream ends and returns what it yielded.
func readAll(sc *Conn) ([]byte, error) {
	var out []byte
	buf := make([]byte, 512)
	for {
		n, err := sc.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
	}
}

func TestWriteIsOneTransportWrite(t *testing.T) {
	cc, sc, rawC := countedPair(t)
	for _, size := range []int{1, 4096, 100000} {
		before := rawC.writes.Load()
		go cc.Write(bytes.Repeat([]byte{'x'}, size))
		if _, err := io.ReadFull(sc, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		if got := rawC.writes.Load() - before; got != 1 {
			t.Errorf("Write of %d bytes made %d transport writes, want 1", size, got)
		}
	}
	// Over maxFrame, one write per record.
	big := make([]byte, maxFrame+1)
	before := rawC.writes.Load()
	go cc.Write(big)
	if _, err := io.ReadFull(sc, big); err != nil {
		t.Fatal(err)
	}
	if got := rawC.writes.Load() - before; got != 2 {
		t.Errorf("Write of maxFrame+1 bytes made %d transport writes, want 2", got)
	}
}

func TestEmptyRecordsAreSkipped(t *testing.T) {
	cc, sc, rawC := countedPair(t)
	if n, err := sc.Read(nil); n != 0 || err != nil {
		t.Fatalf("Read(nil) = %d, %v", n, err)
	}
	before := rawC.writes.Load()
	go func() {
		for i := 0; i < 2; i++ {
			for j := 0; j < 200; j++ {
				cc.Write(nil)
			}
			cc.Write([]byte("data"))
		}
	}()
	// Read itself moves past the empty records.
	buf := make([]byte, 16)
	if n, err := sc.Read(buf); string(buf[:n]) != "data" || err != nil {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	// A bufio.Reader filling its buffer gives up with io.ErrNoProgress
	// after 100 reads in a row that return (0, nil).
	got, err := bufio.NewReader(sc).Peek(4)
	if string(got) != "data" || err != nil {
		t.Fatalf("Peek = %q, %v", got, err)
	}
	if n := rawC.writes.Load() - before; n != 402 {
		t.Errorf("402 records took %d transport writes", n)
	}
}

// Concurrent writers each get whole records under their own nonces:
// every message arrives intact, none interleaved with another.
func TestConcurrentWritersKeepRecordsWhole(t *testing.T) {
	cc, sc, _ := countedPair(t)
	const writers, each, size = 4, 50, 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := cc.Write(bytes.Repeat([]byte{byte(w)}, size)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	got := make([]int, writers)
	msg := make([]byte, size)
	for i := 0; i < writers*each; i++ {
		if _, err := io.ReadFull(sc, msg); err != nil {
			t.Fatal(err)
		}
		if w := int(msg[0]); w >= writers || !bytes.Equal(msg, bytes.Repeat(msg[:1], size)) {
			t.Fatalf("message %d mixes writers: %x", i, msg)
		} else {
			got[w]++
		}
	}
	wg.Wait()
	for w, n := range got {
		if n != each {
			t.Errorf("writer %d: %d messages arrived, want %d", w, n, each)
		}
	}
}

// deliver writes each chunk to raw in its own transport write, then
// closes raw.
func deliver(raw net.Conn, chunks ...[]byte) {
	for _, c := range chunks {
		if _, err := raw.Write(c); err != nil {
			break
		}
	}
	raw.Close()
}

func TestRecordDeliveryShapes(t *testing.T) {
	msgs := []string{"first", "", "second record", strings.Repeat("z", 5000)}
	want := strings.Join(msgs, "")
	cases := map[string]func(wire [][]byte) [][]byte{
		// The framing earlier builds wrote: header and ciphertext in
		// two transport writes.
		"two writes per record": func(wire [][]byte) [][]byte { return wire },
		"all records in one write": func(wire [][]byte) [][]byte {
			return [][]byte{bytes.Join(wire, nil)}
		},
		"one byte per write": func(wire [][]byte) [][]byte {
			var out [][]byte
			for _, b := range bytes.Join(wire, nil) {
				out = append(out, []byte{b})
			}
			return out
		},
	}
	for name, shape := range cases {
		t.Run(name, func(t *testing.T) {
			cc, sc, rawC := countedPair(t)
			var wire [][]byte
			for _, m := range msgs {
				hdr, ct := sealRecord(cc, []byte(m))
				wire = append(wire, hdr, ct)
			}
			go deliver(rawC.Conn, shape(wire)...)
			got, err := readAll(sc)
			if err != io.EOF {
				t.Fatalf("stream ended with %v, want EOF", err)
			}
			if string(got) != want {
				t.Fatalf("got %d bytes, want %d in order", len(got), len(want))
			}
		})
	}
}

func TestWriteMatchesHandBuiltRecord(t *testing.T) {
	cc, _, _ := countedPair(t)
	var sent bytes.Buffer
	cc.raw = writerConn{Conn: cc.raw, w: &sent}
	// Both ends of sealRecord and Write share cc's counter: seal by
	// hand with the counter Write will use, then rewind it.
	seq := cc.sendSeq
	hdr, ct := sealRecord(cc, []byte("pinned"))
	cc.sendSeq = seq
	if _, err := cc.Write([]byte("pinned")); err != nil {
		t.Fatal(err)
	}
	if want := append(hdr, ct...); !bytes.Equal(sent.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", sent.Bytes(), want)
	}
}

type writerConn struct {
	net.Conn
	w io.Writer
}

func (c writerConn) Write(p []byte) (int, error) { return c.w.Write(p) }

func TestAuthenticationFailureEndsStream(t *testing.T) {
	cc, sc, rawC := countedPair(t)
	hdr, ct := sealRecord(cc, []byte("forged"))
	ct[0] ^= 1
	hdr2, ct2 := sealRecord(cc, []byte("after"))
	go deliver(rawC.Conn, hdr, ct, hdr2, ct2)
	got, err := readAll(sc)
	if len(got) != 0 || err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("got %q, %v", got, err)
	}
	if _, again := sc.Read(make([]byte, 8)); again != err {
		t.Fatalf("later Read = %v, want the same error", again)
	}
}

// FuzzSecureRecord feeds arbitrary transport bytes to the receiving end
// of a real channel: two records the sender sealed, then junk, with
// one bit flipped and the stream cut where the input says, delivered
// in chunks of the given size (0: one write). The receiver must yield
// exactly the plaintext of the records before the first damaged one,
// never a byte of a record that fails authentication, and never hold a
// buffer larger than the largest valid record.
func FuzzSecureRecord(f *testing.F) {
	over := binary.BigEndian.AppendUint32(nil, maxFrame+16+1)
	f.Add([]byte("hello"), []byte("world"), []byte(nil), -1, -1, uint8(0))       // valid records
	f.Add([]byte("hello"), []byte("world"), []byte(nil), 8*6, -1, uint8(0))      // a flipped bit
	f.Add([]byte("hello"), []byte("world"), []byte(nil), -1, 40, uint8(0))       // truncated
	f.Add([]byte(""), []byte(""), append(over, "xxxx"...), -1, -1, uint8(0))     // maxFrame+1
	f.Add([]byte("hello"), []byte("world"), []byte("junk"), -1, -1, uint8(1))    // a byte at a time
	f.Add([]byte("coalesced"), []byte("records"), []byte(nil), -1, -1, uint8(0)) // two in one write
	f.Fuzz(func(t *testing.T, first, second, junk []byte, flip, cut int, chunk uint8) {
		cc, sc, rawC := countedPair(t)
		h1, c1 := sealRecord(cc, first)
		h2, c2 := sealRecord(cc, second)
		wire := bytes.Join([][]byte{h1, c1, h2, c2, junk}, nil)
		ends := []int{len(h1) + len(c1), len(h1) + len(c1) + len(h2) + len(c2)}
		intact := len(wire)
		if flip >= 0 && flip < 8*len(wire) {
			wire[flip/8] ^= 1 << (flip % 8)
			intact = min(intact, flip/8)
		}
		if cut >= 0 && cut < len(wire) {
			wire = wire[:cut]
			intact = min(intact, cut)
		}
		var want []byte
		if ends[0] <= intact {
			want = append(want, first...)
			if ends[1] <= intact {
				want = append(want, second...)
			}
		}
		var chunks [][]byte
		for rest := wire; len(rest) > 0; {
			n := len(rest)
			if chunk > 0 {
				n = min(n, int(chunk))
			}
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		done := make(chan struct{})
		go func() { defer close(done); deliver(rawC.Conn, chunks...) }()
		got, err := readAll(sc)
		sc.Close()
		<-done
		if !bytes.Equal(got, want) {
			t.Fatalf("yielded %q, want %q", got, want)
		}
		if err == nil {
			t.Fatal("stream ended without an error")
		}
		if limit := maxFrame + sc.recv.Overhead(); cap(sc.rbuf) > limit {
			t.Fatalf("holds a %d-byte buffer, over the %d-byte frame limit", cap(sc.rbuf), limit)
		}
	})
}

// BenchmarkRecordRoundTrip measures one small record each way over an
// established channel on loopback TCP: the shape of an RMI call and
// its reply.
func BenchmarkRecordRoundTrip(b *testing.B) {
	l, err := Listen("127.0.0.1:0", IdentityFromSeed("s"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	msg := bytes.Repeat([]byte{'m'}, 200)
	go func() {
		sc, err := l.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		buf := make([]byte, len(msg))
		for {
			if _, err := io.ReadFull(sc, buf); err != nil {
				return
			}
			if _, err := sc.Write(buf); err != nil {
				return
			}
		}
	}()
	cc, err := Dialer{ID: IdentityFromSeed("c")}.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	buf := make([]byte, len(msg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(cc, buf); err != nil {
			b.Fatal(err)
		}
	}
}
