package daemon

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/webfs"
)

// WebFS boots sf-webfs, the protected web file server, from its
// argument list. With -share-prefix it writes the delegation to stdout
// instead and returns a nil Node.
func WebFS(args []string) (n *Node, err error) {
	b, fs := newBoot("sf-webfs", true)
	defer b.finish(&err)
	root := fs.String("root", ".", "directory to serve")
	keyFile := fs.String("owner-key", "", "owner private key file (sf-keygen output)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	adminAddr := fs.String("admin-addr", "", "admin/metrics HTTP listen address (empty = disabled)")
	service := fs.String("service", "files", "service name used in tags")
	sharePrefix := fs.String("share-prefix", "", "emit a delegation for this path prefix and exit")
	shareTo := fs.String("share-to", "", "recipient principal S-expression for -share-prefix")
	shareTTL := fs.Duration("share-ttl", 24*time.Hour, "delegation lifetime")

	fs.Parse(args) // ExitOnError: an unparsable list never returns
	switch {
	case *keyFile == "":
		return nil, errors.New("-owner-key is required")
	case *sharePrefix != "" && *shareTo == "":
		return nil, errors.New("-share-prefix needs -share-to")
	}
	priv, err := sfkey.LoadPrivateKeyFile(*keyFile)
	if err != nil {
		return nil, err
	}
	ownerHash := principal.HashOfKey(priv.Public())

	if *sharePrefix != "" {
		recipient, err := principal.Parse(*shareTo)
		if err != nil {
			return nil, fmt.Errorf("-share-to: %w", err)
		}
		c, err := webfs.ShareSubtree(priv, ownerHash, recipient, *service, *sharePrefix, *shareTTL)
		if err != nil {
			return nil, err
		}
		_, err = fmt.Println(string(c.Sexp().Transport()))
		return nil, err
	}

	rt, err := b.start()
	if err != nil {
		return nil, err
	}
	srv := webfs.New(ownerHash, *service, os.DirFS(*root))
	srv.Protected().Obs = rt.Tracer()
	srv.Protected().Audit = rt.Audit()
	if n, err = b.serve(*addr, srv, *adminAddr); err == nil {
		rt.Printf("serving %s on %s; controlled by %s", *root, n.Addr, ownerHash)
	}
	return n, err
}
