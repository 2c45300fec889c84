package service

import (
	"fmt"
	"sync"

	"panorama/internal/arch"
	"panorama/internal/dfg"
	"panorama/internal/kernels"
)

// graphMemoCap bounds the kernel-graph memo. Scale arrives as a client
// float, so the key space is unbounded and the memo must not be; 64
// frozen graphs (≈ 100 KB each at the paper's scale, a quarter of that
// at quick scale) cover every kernel at a handful of scales. A constant
// and not an Option: a miss costs one kernel build (tens of
// microseconds), so nothing a deployment could tune it for.
const graphMemoCap = 64

// maxScale bounds a client's kernel scale. The graph is built in the
// HTTP handler, before admission, and grows linearly with scale (conv2d
// has ≈ 490 nodes per unit), so an unbounded scale would let a 40-byte
// body ask for gigabytes. At 4 the largest kernel, invertmat, has 3,920
// nodes and takes 5 ms to build; every scale in use is at most 1.
const maxScale = 4

type graphKey struct {
	kernel string
	scale  float64 // normalised: never <= 0
}

// inputs is the server's store of immutable job inputs: the preset
// architectures, built once per name, and a bounded memo of frozen
// kernel graphs. Requests that name the same kernel, scale and preset
// resolve to the same *dfg.Graph and *arch.CGRA, so a cache hit
// rebuilds nothing and concurrent or retained jobs pin one copy
// instead of one each. Both types are read-only after construction
// (see their doc comments); an evicted graph lives on for as long as a
// job still points at it. Inline dfg and archDesc requests bypass the
// store and own what they parsed.
type inputs struct {
	mu      sync.Mutex
	presets map[string]*arch.CGRA
	graphs  map[graphKey]*dfg.Graph
}

func newInputs() *inputs {
	return &inputs{
		presets: make(map[string]*arch.CGRA),
		graphs:  make(map[graphKey]*dfg.Graph),
	}
}

// preset returns the shared instance of a named architecture.
func (in *inputs) preset(name string) (*arch.CGRA, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if a, ok := in.presets[name]; ok {
		return a, nil
	}
	a, err := arch.Preset(name)
	if err != nil {
		return nil, err
	}
	in.presets[name] = a
	return a, nil
}

// kernelGraph returns the shared frozen graph of a built-in kernel at
// scale (<= 0 means 1.0, as on the wire; above maxScale is an error).
func (in *inputs) kernelGraph(kernel string, scale float64) (*dfg.Graph, error) {
	if scale <= 0 {
		scale = 1.0
	}
	if scale > maxScale {
		return nil, fmt.Errorf("scale %g is above the limit %d", scale, maxScale)
	}
	key := graphKey{kernel, scale}
	in.mu.Lock()
	g, ok := in.graphs[key]
	in.mu.Unlock()
	if ok {
		return g, nil
	}
	spec, err := kernels.ByName(kernel)
	if err != nil {
		return nil, err
	}
	// Built outside the lock: a large scale must not stall every other
	// request's lookup.
	g = spec.Build(scale)
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if first, ok := in.graphs[key]; ok {
		return first, nil // a concurrent miss got here first; share its graph
	}
	if len(in.graphs) >= graphMemoCap {
		for k := range in.graphs {
			delete(in.graphs, k) // an arbitrary entry: map order is random
			break
		}
	}
	in.graphs[key] = g
	return g, nil
}
