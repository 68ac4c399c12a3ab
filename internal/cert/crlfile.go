package cert

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/sexp"
)

// LoadCRLFile reads every CRL S-expression in the file and returns
// them in order. It accepts both layouts that grew in the daemons:
// one CRL per line and whole-file concatenated expressions (and any
// mix — the parser consumes one expression at a time and whitespace
// between expressions is skipped), so the same CRL file works in
// every daemon. Signatures are NOT verified here; installation
// (RevocationStore.Add, which the daemons reach through
// certdir.InstallCRLs) verifies before anything takes effect, and
// deduplicates, so re-reading a file that grew installs exactly the
// new lists.
func LoadCRLFile(path string) ([]*RevocationList, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lists []*RevocationList
	n := 0
	for {
		raw = bytes.TrimLeft(raw, " \t\r\n")
		if len(raw) == 0 {
			return lists, nil
		}
		e, used, err := sexp.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("cert: %s: crl %d: %w", path, n+1, err)
		}
		rl, err := RevocationListFromSexp(e)
		if err != nil {
			return nil, fmt.Errorf("cert: %s: crl %d: %w", path, n+1, err)
		}
		lists = append(lists, rl)
		raw = raw[used:]
		n++
	}
}
