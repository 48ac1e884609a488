package modelspec

// Searched-architecture specs. The PSO of internal/pso evolves genomes
// (Bundle type, per-slot channel widths, pooling positions); this file
// makes such a candidate self-describing the same way the named backbone
// families are: a Spec with Family "search" carries the genome, Build
// materializes it into a trainable graph, and ArchHash gives it a
// canonical identity that the search's accuracy cache (and so its
// checkpoints) key on.
// The hash is computed from the decoded field values in a fixed order, so
// two JSON documents that permute keys (or differ only in formatting)
// name the same architecture, while any change to the genome itself —
// including reordering Channels, which *is* a different network — changes
// the hash.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"skynet/internal/bundle"
	"skynet/internal/nn"
)

// FamilySearch is the Spec.Family value of searched architectures.
const FamilySearch = "search"

// SearchSpec builds a Spec describing one searched candidate: the Bundle
// with the given enumeration ID replicated len(channels) times with the
// given output widths, 2×2 poolings after the slots listed in poolPos, and
// the SkyNet detection head.
func SearchSpec(bundleID int, channels, poolPos []int, seed int64) Spec {
	return Spec{
		Family:       FamilySearch,
		Bundle:       bundleID,
		Channels:     append([]int(nil), channels...),
		PoolPos:      append([]int(nil), poolPos...),
		InC:          3,
		HeadChannels: 10,
		Seed:         seed,
	}
}

// buildSearch materializes a "search"-family spec: the Bundle with the
// stable enumeration ID as a bundle.Chain, so a persisted spec reloads
// without search state.
func (s Spec) buildSearch() (*nn.Graph, error) {
	b, ok := bundle.ByID(s.Bundle)
	if !ok {
		return nil, fmt.Errorf("modelspec: unknown bundle ID %d", s.Bundle)
	}
	if s.ReLU6 {
		b = b.WithReLU6()
	}
	if len(s.Channels) == 0 {
		return nil, fmt.Errorf("modelspec: search spec has no channel slots")
	}
	for i, p := range s.PoolPos {
		if p < 0 || p >= len(s.Channels) || (i > 0 && p <= s.PoolPos[i-1]) {
			return nil, fmt.Errorf("modelspec: search spec pool positions %v must be strictly increasing slot indices", s.PoolPos)
		}
	}
	g, _ := bundle.Chain{Bundle: b, Channels: s.Channels, PoolAfter: s.PoolPos,
		InC: s.InC, HeadC: s.HeadChannels, Bypass: s.Bypass}.Build(rand.New(rand.NewSource(s.Seed)))
	return g, nil
}

// ArchHash returns the canonical 128-bit identity of the architecture the
// spec describes, as 32 hex digits. It hashes the decoded field values in
// a fixed order (never raw JSON bytes), so representational differences —
// key order, whitespace, defaulted fields — cannot split cache entries,
// while every architecture-bearing field (family, variant, width, channel
// genome, pooling genome, bundle, head, seed) feeds the digest. Two
// independent FNV-1a streams with distinct offsets keep the collision
// surface at 128 bits, the same construction as the serving tier's
// content-routing hash.
func ArchHash(s Spec) string {
	var h archHasher
	h.init()
	h.str(s.Family)
	h.str(s.Variant)
	h.u64(math.Float64bits(s.Width))
	h.u64(uint64(s.InC))
	h.u64(uint64(s.HeadChannels))
	h.u64(uint64(s.MaxStride))
	h.bool(s.ReLU6)
	h.u64(uint64(s.Classes))
	h.u64(uint64(s.Seed))
	h.u64(uint64(s.Bundle))
	h.ints(s.Channels)
	h.ints(s.PoolPos)
	h.bool(s.Bypass)
	return h.sum()
}

// archHasher is a dual-stream 64-bit FNV-1a accumulator. Each field is
// framed with its length (for variable-size fields) so adjacent fields
// cannot alias — {Channels:[1,2]} and {Channels:[1],PoolPos:[2]} digest
// differently.
type archHasher struct {
	a, b uint64
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	// The second stream starts from a distinct offset so the two 64-bit
	// halves are independent.
	fnvOffsetAlt = 0x84222325cbf29ce4
)

func (h *archHasher) init() { h.a, h.b = fnvOffset64, fnvOffsetAlt }

func (h *archHasher) byte(c byte) {
	h.a = (h.a ^ uint64(c)) * fnvPrime64
	h.b = (h.b ^ uint64(c)) * fnvPrime64
}

func (h *archHasher) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for _, c := range buf {
		h.byte(c)
	}
}

func (h *archHasher) bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *archHasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *archHasher) ints(xs []int) {
	h.u64(uint64(len(xs)))
	for _, x := range xs {
		h.u64(uint64(x))
	}
}

func (h *archHasher) sum() string {
	return fmt.Sprintf("%016x%016x", h.a, h.b)
}
