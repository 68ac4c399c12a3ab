package secure

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/principal"
	"repro/internal/sfkey"
)

// A record on the wire is a 4-byte big-endian length followed by that
// many bytes of AES-GCM ciphertext. maxFrame bounds a record's
// plaintext.
const (
	hdrLen   = 4
	maxFrame = 1 << 20
)

// Conn is an established secure channel; it implements channel.Conn.
type Conn struct {
	raw       net.Conn
	localKey  sfkey.PublicKey
	peerKey   sfkey.PublicKey
	sessionID []byte

	send cipher.AEAD
	recv cipher.AEAD
	// Counters provide unique nonces per direction; a nonce is four
	// zero bytes and the big-endian counter.
	sendSeq, recvSeq     uint64
	sendNonce, recvNonce [12]byte

	// wmu serializes writers: a nonce must never seal two records, and
	// records must not interleave on the transport.
	wmu  sync.Mutex
	wbuf []byte // the record being written: header, then ciphertext

	rmu     sync.Mutex    // serializes readers
	br      *bufio.Reader // the transport, buffered after the handshake
	rhdr    [hdrLen]byte  // the header of the record being read
	rbuf    []byte        // the last record's ciphertext, opened in place
	readBuf []byte        // plaintext not yet consumed, within rbuf
	rerr    error         // the error that ended the read stream
}

var _ channel.Conn = (*Conn)(nil)

// Client performs the initiator handshake over an existing transport.
func Client(raw net.Conn, id *Identity) (*Conn, error) {
	return newConn(raw, id, true)
}

// Server performs the responder handshake over an existing transport.
func Server(raw net.Conn, id *Identity) (*Conn, error) {
	return newConn(raw, id, false)
}

func newConn(raw net.Conn, id *Identity, isClient bool) (*Conn, error) {
	hs, err := handshake(raw, id, isClient)
	if err != nil {
		raw.Close()
		return nil, err
	}
	send, err := newAEAD(hs.sendKey)
	if err != nil {
		raw.Close()
		return nil, err
	}
	recv, err := newAEAD(hs.recvKey)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return &Conn{
		raw:       raw,
		localKey:  id.Priv.Public(),
		peerKey:   hs.peerKey,
		sessionID: hs.sessionID,
		send:      send,
		recv:      recv,
		br:        bufio.NewReader(raw),
	}, nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// PeerKey implements channel.Conn.
func (c *Conn) PeerKey() sfkey.PublicKey { return c.peerKey }

// LocalKey implements channel.Conn.
func (c *Conn) LocalKey() sfkey.PublicKey { return c.localKey }

// SessionID identifies this channel instance; both ends derive the
// same value from the key exchange.
func (c *Conn) SessionID() []byte { return append([]byte(nil), c.sessionID...) }

// Principal implements channel.Conn: the channel principal whose
// binding is the session id ("KCH" in Figure 3).
func (c *Conn) Principal() principal.Channel {
	return principal.ChannelOf(principal.ChannelSecure, c.sessionID)
}

// Kind implements channel.Conn.
func (c *Conn) Kind() string { return principal.ChannelSecure }

// Write encrypts p as one framed record, len ‖ Seal(p), and hands it
// to the transport in a single write; p over maxFrame becomes several
// records. The record is sealed in place in a buffer the Conn keeps,
// so a steady stream of writes allocates nothing.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	total := 0
	for {
		n := min(len(p), maxFrame)
		if err := c.writeRecord(p[:n]); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
		if len(p) == 0 {
			return total, nil
		}
	}
}

func (c *Conn) writeRecord(p []byte) error {
	size := len(p) + c.send.Overhead()
	if cap(c.wbuf) < hdrLen+size {
		c.wbuf = make([]byte, hdrLen, hdrLen+size)
	}
	binary.BigEndian.PutUint32(c.wbuf[:hdrLen], uint32(size))
	binary.BigEndian.PutUint64(c.sendNonce[4:], c.sendSeq)
	rec := c.send.Seal(c.wbuf[:hdrLen], c.sendNonce[:], p, nil)
	c.sendSeq++
	_, err := c.raw.Write(rec)
	return err
}

// Read returns decrypted bytes, buffering record remainders. A record
// that holds no plaintext (a peer's Write(nil)) is skipped, so Read
// never reports (0, nil) to a non-empty p. The first error — a failed
// transport read, an oversized frame, a record that does not
// authenticate — ends the stream: every later Read returns it.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for len(c.readBuf) == 0 {
		if c.rerr != nil {
			return 0, c.rerr
		}
		c.rerr = c.readRecord()
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// readRecord reads the next record from the buffered transport and
// opens it in place. It is called only once the previous record's
// plaintext is consumed, so the ciphertext buffer is free to reuse.
// The length is checked before any buffer of that size exists.
func (c *Conn) readRecord() error {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	if n > uint32(maxFrame+c.recv.Overhead()) {
		return fmt.Errorf("secure: oversized frame %d", n)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	ct := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, ct); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	binary.BigEndian.PutUint64(c.recvNonce[4:], c.recvSeq)
	pt, err := c.recv.Open(ct[:0], c.recvNonce[:], ct, nil)
	if err != nil {
		return fmt.Errorf("secure: record authentication failed: %w", err)
	}
	c.recvSeq++
	c.readBuf = pt
	return nil
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.raw.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// Dialer dials TCP and runs the client handshake; it implements
// channel.Dialer (the SSHSocketFactory analog of Figure 4).
type Dialer struct {
	ID *Identity
}

// Dial implements channel.Dialer.
func (d Dialer) Dial(addr string) (channel.Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Client(raw, d.ID)
}

// Listener accepts TCP connections and runs the server handshake.
type Listener struct {
	ID *Identity
	L  net.Listener
}

// Listen starts a secure listener on addr.
func Listen(addr string, id *Identity) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ID: id, L: l}, nil
}

// Accept implements channel.Listener.
func (l *Listener) Accept() (channel.Conn, error) {
	raw, err := l.L.Accept()
	if err != nil {
		return nil, err
	}
	return Server(raw, l.ID)
}

// Close implements channel.Listener.
func (l *Listener) Close() error { return l.L.Close() }

// Addr implements channel.Listener.
func (l *Listener) Addr() net.Addr { return l.L.Addr() }
