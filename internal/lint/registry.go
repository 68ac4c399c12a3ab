package lint

// All returns the sf-vet analyzer suite, each entry mapping to one of
// the repo's hand-written invariants (see docs/ARCHITECTURE.md,
// "Enforced invariants").
func All() []*Analyzer {
	return []*Analyzer{
		LockScope,
		TrustFlow,
		ClockCheck,
		EpochCheck,
		MetricName,
	}
}
