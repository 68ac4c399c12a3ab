package admit

// MemoMax is the persistent context's memo bound, for the retention
// test.
const MemoMax = memoMax

// Locked reports whether the pipeline mutex is held right now.
func (p *Pipeline) Locked() bool {
	if p.mu.TryLock() {
		p.mu.Unlock()
		return false
	}
	return true
}

// Retained reports how many proofs are on file and how many verdicts
// the persistent context memoizes.
func (p *Pipeline) Retained() (filed, memo int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ps := range p.proofs {
		filed += len(ps)
	}
	return filed, p.vctx.Refresh(p.cache()).CacheSize()
}
