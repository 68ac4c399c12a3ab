// Package loadgen generates the seeded delegation world the mesh
// benchmark (benchmark/) drives: a database domain, organization-level
// issuers with a zipf-heavy member fan-out, K synthetic principals whose
// mailbox chains run db → org → principal → (gateway quoting
// principal), and a zipf-skewed request schedule. The world is a pure
// function of (Config.Seed, Config.Now), so two builds with the same
// inputs are byte-identical and runs over them are comparable.
package loadgen

import (
	"fmt"
	"time"
)

// Config shapes one generated world; the zero value is not buildable.
type Config struct {
	Gateways    int // N: gateways principals hand their quoting delegation to
	Directories int // M: directories principals are spread across (HomeDir)
	Principals  int // K: synthetic principals
	// Orgs is the number of intermediate issuers the database
	// delegates to; principals are assigned to orgs zipf-heavy, so a
	// few orgs carry most of the fan-out (the "issuer fan-out" knob).
	Orgs int

	Seed int64 // drives keys, graph shape, and the request schedule
	// ZipfS is the zipf exponent (>1) for both org assignment and
	// request targeting; larger = heavier head.
	ZipfS float64

	WarmOps int // length of the zipf-targeted request schedule

	Concurrency    int           // read by nothing; benchmark/admit.go still sets it
	GossipInterval time.Duration // read by nothing; benchmark/admit.go still sets it
	RevokeRounds   int           // read by nothing; benchmark/admit.go still sets it
	MintTTL        time.Duration // read by nothing; benchmark/admit.go still sets it

	// Now anchors certificate validity windows and, being part of the
	// signed bodies, makes the generated graph byte-identical across
	// builds with the same seed. Zero means time.Now() (reproducible
	// shape, not bytes).
	Now time.Time
}

// Validate rejects shapes BuildGraph cannot generate.
func (c *Config) Validate() error {
	switch {
	case c.Gateways < 1:
		return fmt.Errorf("loadgen: need at least 1 gateway")
	case c.Directories < 1:
		return fmt.Errorf("loadgen: need at least 1 directory")
	case c.Principals < 1:
		return fmt.Errorf("loadgen: need at least 1 principal")
	case c.Orgs < 1 || c.Orgs > c.Principals:
		return fmt.Errorf("loadgen: orgs must be in [1, principals]")
	case c.ZipfS <= 1:
		return fmt.Errorf("loadgen: zipf exponent must be > 1")
	}
	return nil
}

// now resolves the world clock: Config.Now when seeded, else the wall
// clock. This is the package's single sanctioned fallback — every
// other site threads the resolved value.
func (c *Config) now() time.Time {
	if !c.Now.IsZero() {
		return c.Now
	}
	//sfvet:ignore clockcheck this zero-value fallback is the Config.Now injection seam itself
	return time.Now()
}
