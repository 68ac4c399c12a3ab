package certdir

import "sync"

// Merkle anti-entropy summaries. The stored set is summarized as a
// fixed-arity tree of (count, XOR of content hashes) over
// content-hash-partitioned leaves: a round exchanges one root summary,
// descends only into disagreeing subtrees (MerkleArity node summaries
// per disagreeing node), and fetches the hash list of only the
// disagreeing leaves — so two converged directories exchange a few
// dozen bytes per round regardless of size, and a single-certificate
// diff at 100k stored certificates costs O(log n) tree nodes.
//
// The tree shape is a protocol constant on both sides of a gossip
// exchange: MerkleLeaves leaves (certificates assigned by the first
// 12 bits of their content hash), arity MerkleArity, nodes numbered
// as an implicit heap (children of node i are i*MerkleArity+1 ..
// i*MerkleArity+MerkleArity, root 0). The root endpoint echoes the
// shape so a puller can detect a mismatched peer and fail the round
// rather than misinterpret node indexes.
//
// Two subtrees hold the same certificate set precisely when count and
// XOR both match, and an adversary cannot steer SHA-256 outputs to
// craft a colliding XOR. On the wire the XOR is truncated to
// MerkleSumBytes bytes — still unforgeable for the same reason, and it
// keeps a descent round's reply small.

const (
	// MerkleLeaves is the leaf count of the anti-entropy hash tree.
	// 4096 leaves keep a leaf's hash list to ~25 entries at 100k
	// certificates, so the final leaf fetch stays under a kilobyte.
	MerkleLeaves = 4096
	// MerkleArity is the tree fan-out: 8^4 = 4096, so a descent from
	// the root to a single disagreeing leaf costs 4 rounds of 8 node
	// summaries each.
	MerkleArity = 8
	// MerkleSumBytes is the wire width of a node summary's XOR.
	MerkleSumBytes = 16

	// merkleFirstLeaf is the heap index of the first leaf node:
	// 1 + 8 + 64 + 512 inner nodes precede the leaves.
	merkleFirstLeaf = 1 + MerkleArity + MerkleArity*MerkleArity + MerkleArity*MerkleArity*MerkleArity
	// MerkleNodeCount is the total node count of the implicit heap.
	MerkleNodeCount = merkleFirstLeaf + MerkleLeaves
)

// MerkleSummary is one node's wire summary.
type MerkleSummary struct {
	Index int
	Count int
	XOR   [MerkleSumBytes]byte
}

// merkleState is the incrementally maintained per-leaf summary array.
// Inner-node summaries are aggregated on demand (a full tree walk is
// ~MerkleNodeCount cheap XORs), so mutations pay one leaf update and
// gossip rounds pay only for the nodes a peer actually asks about.
type merkleState struct {
	mu    sync.Mutex
	count [MerkleLeaves]int32
	xor   [MerkleLeaves][32]byte
}

// merkleLeafOf assigns a certificate (by content-hash key) to its
// leaf: the first 12 bits of the SHA-256 content hash. Uniform by
// construction, and — unlike shard.Index — trivially stable across
// implementations of the wire protocol.
func merkleLeafOf(hashKey string) int {
	if len(hashKey) < 2 {
		return 0
	}
	return int(hashKey[0])<<4 | int(hashKey[1])>>4
}

// merkleIsLeaf reports whether a heap index names a leaf.
func merkleIsLeaf(idx int) bool { return idx >= merkleFirstLeaf }

// merkleChildren appends the heap indexes of idx's children to dst.
func merkleChildren(dst []int, idx int) []int {
	for i := 1; i <= MerkleArity; i++ {
		dst = append(dst, idx*MerkleArity+i)
	}
	return dst
}

// merkleLeafRange returns the half-open leaf-array range [lo, hi)
// summarized by heap node idx.
func merkleLeafRange(idx int) (lo, hi int) {
	start, count := 0, 1
	for idx >= start+count {
		start += count
		count *= MerkleArity
	}
	span := MerkleLeaves / count
	off := idx - start
	return off * span, (off + 1) * span
}

// merkleAdd folds one stored certificate into its leaf summary.
func (s *Store) merkleAdd(hashKey string) { s.merkle.update(hashKey, 1) }

// merkleDrop removes one certificate from its leaf summary.
func (s *Store) merkleDrop(hashKey string) { s.merkle.update(hashKey, -1) }

// update XORs the hash into its leaf (XOR is its own inverse, so add
// and drop are the same fold) and moves the count by delta.
func (m *merkleState) update(hashKey string, delta int32) {
	leaf := merkleLeafOf(hashKey)
	m.mu.Lock()
	m.count[leaf] += delta
	for i := 0; i < 32 && i < len(hashKey); i++ {
		m.xor[leaf][i] ^= hashKey[i]
	}
	m.mu.Unlock()
}

// MerkleSummaries computes the summaries of the requested heap nodes
// from the leaf array. Out-of-range indexes are skipped. The whole
// answer is computed under one lock acquisition so a reply describes
// a single consistent tree state.
func (s *Store) MerkleSummaries(idxs []int) []MerkleSummary {
	out := make([]MerkleSummary, 0, len(idxs))
	m := &s.merkle
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, idx := range idxs {
		if idx < 0 || idx >= MerkleNodeCount {
			continue
		}
		lo, hi := merkleLeafRange(idx)
		sum := MerkleSummary{Index: idx}
		var x [32]byte
		for l := lo; l < hi; l++ {
			sum.Count += int(m.count[l])
			for i := range x {
				x[i] ^= m.xor[l][i]
			}
		}
		copy(sum.XOR[:], x[:MerkleSumBytes])
		out = append(out, sum)
	}
	return out
}

// MerkleRoot is the summary of the whole stored set.
func (s *Store) MerkleRoot() MerkleSummary {
	return s.MerkleSummaries([]int{0})[0]
}

// HashesInLeaves lists the content hashes stored in each requested
// leaf (by leaf-array index, not heap index), in one pass over the
// shards. The anti-entropy descent pulls it only for leaves whose
// summaries disagree.
func (s *Store) HashesInLeaves(leaves []int) map[int][][]byte {
	want := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		if l >= 0 && l < MerkleLeaves {
			want[l] = true
		}
	}
	out := make(map[int][][]byte, len(want))
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.byHash {
			if l := merkleLeafOf(k); want[l] {
				out[l] = append(out[l], []byte(k))
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// merkleRecomputed rebuilds the leaf summaries from a full shard scan;
// the consistency test asserts it matches the incremental state.
func (s *Store) merkleRecomputed() ([MerkleLeaves]int32, [MerkleLeaves][32]byte) {
	var count [MerkleLeaves]int32
	var xor [MerkleLeaves][32]byte
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.byHash {
			l := merkleLeafOf(k)
			count[l]++
			for i := 0; i < 32 && i < len(k); i++ {
				xor[l][i] ^= k[i]
			}
		}
		sh.mu.RUnlock()
	}
	return count, xor
}

// merkleSnapshot copies the incremental leaf summaries (test hook).
func (s *Store) merkleSnapshot() ([MerkleLeaves]int32, [MerkleLeaves][32]byte) {
	s.merkle.mu.Lock()
	defer s.merkle.mu.Unlock()
	return s.merkle.count, s.merkle.xor
}
