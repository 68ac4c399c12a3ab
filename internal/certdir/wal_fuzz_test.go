package certdir

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzWALNow is the fixed clock of FuzzWALReplay: the certificates in
// its checked-in corpus are valid an hour either side of it.
var fuzzWALNow = time.Unix(1_800_000_000, 0)

// FuzzWALReplay feeds arbitrary bytes to OpenDurable as a data
// directory's only segment — the on-disk input replay trusts least.
// Whatever the bytes, the open must not panic or fail, must keep only
// certificates and CRLs that verify, and must leave a clean log
// behind: a second open of the same directory reports no tear, drops
// nothing, and holds the same state (identical snapshot bytes). The
// checked-in corpus (testdata/fuzz/FuzzWALReplay) is a real small log
// — three publishes, a removal and its event — as an active segment,
// with its last record torn, and as the base a compaction wrote; a
// segment holding a CRL record, the same with the list's signature
// forged, a CRL install as it is journaled now (the list's crl event,
// the list, and the eviction it caused), a complete snapshot stream
// (base, records, trailer), a log whose publish records carry their
// events' cursor tokens, as publishes are journaled now, and a log
// holding a removal heard from a peer.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := OpenDurable(dir, 4, SyncNever, fuzzWALNow)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		ctx := publishCtx(fuzzWALNow)
		ctx.Cache = nil
		for _, sh := range st.shards {
			for _, e := range sh.byHash {
				if err := e.cert.Verify(ctx); err != nil {
					t.Fatalf("replay indexed a certificate that does not verify: %v", err)
				}
			}
		}
		for _, rl := range st.CRLs() {
			if err := rl.Verify(); err != nil {
				t.Fatalf("replay kept a CRL that does not verify: %v", err)
			}
		}
		want := snapshotBytes(t, st, fuzzWALNow)
		if err := st.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		re, rec, err := OpenDurable(dir, 4, SyncNever, fuzzWALNow)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer re.CloseWAL()
		if rec.Torn || rec.Dropped != 0 {
			t.Fatalf("second open = %+v, want torn=false dropped=0", rec)
		}
		if got := snapshotBytes(t, re, fuzzWALNow); !bytes.Equal(got, want) {
			t.Fatalf("second open holds different state (%d vs %d snapshot bytes)", len(got), len(want))
		}
	})
}
