package cert

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/sexp"
)

// Admin endpoints for daemons that hold a RevocationStore but no
// certificate-directory service (sf-dbserver): install a CRL or
// re-read the daemon's CRL file without a restart. The directory
// daemon has richer versions of these under /certdir/admin/ (they
// additionally evict and gossip); these only feed the store — which
// is all a pure verifier needs, because installing a CRL bumps the
// proof-cache epoch and the next presentation of any affected proof
// re-verifies against the new revocation state.
//
//	POST /admin/crl        (crl ...)    -> (crl-installed) | (crl-duplicate)
//	POST /admin/reload-crl (reload-crl) -> (reloaded (added n) (total m))
const (
	AdminPathCRL    = "/admin/crl"
	AdminPathReload = "/admin/reload-crl"
)

// adminMaxBody bounds admin request bodies; a CRL is a signer, a
// signature, and a list of 32-byte hashes, so 1 MiB covers tens of
// thousands of revocations.
const adminMaxBody = 1 << 20

// AdminHandler serves the revocation admin endpoints. install verifies
// and installs lists and reports how many were new — the daemon's one
// install function, the same one it hands server.Runtime.WireCRLFile
// (certdir.InstallCRLs bound to its state). reload, when non-nil,
// backs the reload endpoint (wire it to the function WireCRLFile
// returns); with a nil reload the endpoint answers a clean 400.
func AdminHandler(install func([]*RevocationList) (added, evicted int, err error), reload func() (added, total int, err error)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(AdminPathCRL, func(w http.ResponseWriter, r *http.Request) {
		body, err := readAdminBody(w, r)
		if err != nil {
			return
		}
		e, err := sexp.ParseOne(body)
		if err != nil {
			http.Error(w, "cert: bad S-expression: "+err.Error(), http.StatusBadRequest)
			return
		}
		rl, err := RevocationListFromSexp(e)
		if err != nil {
			http.Error(w, "cert: "+err.Error(), http.StatusBadRequest)
			return
		}
		added, _, err := install([]*RevocationList{rl})
		if err != nil {
			http.Error(w, "cert: "+err.Error(), http.StatusBadRequest)
			return
		}
		if added == 0 {
			replySexp(w, sexp.List(sexp.String("crl-duplicate")))
			return
		}
		replySexp(w, sexp.List(sexp.String("crl-installed")))
	})
	mux.HandleFunc(AdminPathReload, func(w http.ResponseWriter, r *http.Request) {
		if _, err := readAdminBody(w, r); err != nil {
			return
		}
		if reload == nil {
			http.Error(w, "cert: no CRL file configured to reload", http.StatusBadRequest)
			return
		}
		added, total, err := reload()
		if err != nil {
			http.Error(w, fmt.Sprintf("cert: reload: %v", err), http.StatusInternalServerError)
			return
		}
		replySexp(w, sexp.List(sexp.String("reloaded"),
			sexp.List(sexp.String("added"), sexp.String(strconv.Itoa(added))),
			sexp.List(sexp.String("total"), sexp.String(strconv.Itoa(total)))))
	})
	return mux
}

func readAdminBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Method != http.MethodPost {
		http.Error(w, "cert: POST required", http.StatusMethodNotAllowed)
		return nil, fmt.Errorf("method")
	}
	// MaxBytesReader, not a silent LimitReader: an over-limit CRL must
	// be refused as such, not truncated into a parse error.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, adminMaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "cert: body exceeds limit", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "cert: bad body", http.StatusBadRequest)
		}
		return nil, err
	}
	return body, nil
}

func replySexp(w http.ResponseWriter, e sexp.Sexp) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(e.Canonical())
}
