package modelspec

// Searched-architecture specs. The PSO of internal/pso evolves genomes
// (Bundle type, per-slot channel widths, pooling positions); this file
// makes such a candidate self-describing the same way the named backbone
// families are: a Spec with Family "search" carries the genome, Build
// materializes it into a trainable graph, and ArchHash gives it a
// canonical identity that evaluation caches and checkpoint files key on.
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
// stable enumeration ID through BuildBundleChain, so a persisted spec
// reloads without search state.
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
	rng := rand.New(rand.NewSource(s.Seed))
	g, _ := BuildBundleChain(rng, b, s.Channels, s.PoolPos, s.InC, s.HeadChannels, s.Bypass)
	return g, nil
}

// BuildBundleChain stacks one Bundle per channel slot with poolings after
// the slots in poolPos and a headC-channel point-wise regression head.
// When bypass is true and applicable (at least one pooling with a slot
// after it), the SkyNet feature bypass of Figure 4 is applied: the output
// of the slot preceding the last pooling is space-to-depth reordered and
// concatenated into the final Bundle's input. The second result reports
// whether the bypass was applied.
func BuildBundleChain(rng *rand.Rand, b bundle.Bundle, channels, poolPos []int, inC, headC int, bypass bool) (*nn.Graph, bool) {
	g := nn.NewGraph()
	poolAfter := map[int]bool{}
	lastPool := -1
	for _, p := range poolPos {
		poolAfter[p] = true
		if p > lastPool {
			lastPool = p
		}
	}
	slots := len(channels)
	applyBypass := bypass && lastPool >= 0 && lastPool < slots-1

	addBundle := func(in, out, from int) int {
		i := from
		for _, l := range b.Build(rng, in, out) {
			if i < 0 {
				i = g.Add(l, nn.GraphInput)
			} else {
				i = g.Add(l, i)
			}
		}
		return i
	}

	cur := inC
	node := -1
	srcNode, srcC := -1, 0
	stop := slots
	if applyBypass {
		stop = slots - 1 // the final slot becomes the fusion bundle
	}
	for s := 0; s < stop; s++ {
		node = addBundle(cur, channels[s], node)
		cur = channels[s]
		if s == lastPool && applyBypass {
			srcNode, srcC = node, cur
		}
		if poolAfter[s] {
			node = g.Add(nn.NewMaxPool(2), node)
		}
	}
	if applyBypass {
		reorg := g.Add(nn.NewReorg(2), srcNode)
		cat := g.Add(nn.NewConcat(), node, reorg)
		node = addBundle(cur+4*srcC, channels[slots-1], cat)
		cur = channels[slots-1]
	}
	if headC > 0 {
		g.Add(nn.NewPWConv1(rng, cur, headC, true), node)
	}
	return g, applyBypass
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
