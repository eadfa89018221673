package dnn

import "sync"

// NetCache memoizes deterministically-constructed networks by
// (architecture, size) so co-resident engines — a fleet's per-vehicle
// detectors and trackers — hold the SAME *Network instead of private,
// bitwise-identical copies. Zoo constructors seed weights per layer, so
// two builds of one architecture at one size are indistinguishable; the
// cache makes that equality a pointer equality.
//
// The fleet wires one cache so that its vehicles hold one copy of each
// architecture+size's weights instead of one copy per vehicle; it has no
// other role.
//
// Networks are safe to share: inference only reads weights (lazy weight
// initialization is mutex-guarded in the layers), and all per-call state
// lives in the caller's Scratch.
//
// A nil *NetCache is valid and simply builds uncached — engines call Get
// unconditionally.
type NetCache struct {
	mu sync.Mutex
	m  map[netKey]*Network
}

type netKey struct {
	kind string
	size int
}

// NewNetCache returns an empty shared-network cache.
func NewNetCache() *NetCache { return &NetCache{} }

// Get returns the cached network for (kind, size), building and caching it
// via build on first use. On a nil receiver Get just builds: callers keep
// one unconditional call site whether or not sharing is configured.
func (c *NetCache) Get(kind string, size int, build func(size int) *Network) *Network {
	if c == nil {
		return build(size)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := netKey{kind: kind, size: size}
	if n, ok := c.m[k]; ok {
		return n
	}
	n := build(size)
	if c.m == nil {
		c.m = make(map[netKey]*Network)
	}
	c.m[k] = n
	return n
}
