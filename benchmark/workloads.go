package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// mapperSeed is the clustering / annealing seed of every compile op
// and of the service's warm pool. It is a constant on purpose: -seed
// varies the order ops are issued in, never the problems themselves,
// so qom_geomean and every count repeat exactly across seeds and a
// change in them is a change in the program.
const mapperSeed = 1

// compileKernels are the input programs of the compile workloads; a
// workload uses all or some of them, so per-kernel rows are comparable.
var compileKernels = []string{"edn", "jpegidctfst", "mmul"}

// compileSpec is one compile workload: its kernels, at one scale, on
// one fabric, through one mapper.
type compileSpec struct {
	Mapper  string // "pan-spr", "spr", "pan-ultrafast" — service naming
	Arch    string
	Scale   float64
	Kernels []string
	// Warmups is how many times set-up maps the kernels at quick scale
	// on 8x8 through the same mapper before the first timed op: fixed
	// CPU-bound work, so setup_s is a third of a second or more and
	// not a microsecond timer reading.
	Warmups int
}

var compileSpecs = map[string]compileSpec{
	"mid16-panspr": {Mapper: "pan-spr", Arch: "16x16", Scale: 0.5, Kernels: compileKernels, Warmups: 3},
	"mid16-spr":    {Mapper: "spr", Arch: "16x16", Scale: 0.5, Kernels: compileKernels, Warmups: 3},
	"full16-panuf": {Mapper: "pan-ultrafast", Arch: "16x16", Scale: 1.0, Kernels: compileKernels, Warmups: 3},
}

// smokeSpec shrinks a compile workload to quick-scale kernels on the
// 8x8 preset and one warm-up round, for the unit tests.
func smokeSpec(s compileSpec) compileSpec {
	s.Arch, s.Scale, s.Warmups = "8x8", 0.25, 1
	return s
}

// compileOps is the op list of a compile workload: its kernels in an
// order drawn from seed. Every pass answers the same list.
func compileOps(seed int64, kernels []string) []string {
	ops := append([]string(nil), kernels...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// The svc-mix traffic: a warm pool every pass hits, beside cold jobs
// nobody has asked for before.
var (
	// warmKernels are the six cheapest quick-scale kernels under
	// pan-ultrafast (50-90 ms each), so prefilling the pool keeps
	// setup_s near a second.
	warmKernels = []string{"edn", "mmul", "cordic", "fir", "jpegidctfst", "invertmat"}
	warmSeeds   = []int64{mapperSeed, mapperSeed + 1}
	coldKernels = []string{"mmul", "fir", "cordic", "kmeans"}
)

const (
	svcArch       = "8x8"
	svcScale      = 0.25
	svcWarmMapper = "pan-ultrafast"
	svcColdMapper = "ultrafast"
	svcPassOps    = 10_000
	svcSmokeOps   = 200
	svcColdShare  = 10 // one op in ten is cold
	svcClients    = 2  // closed loop, one per core
	svcSetups     = 3  // setup_s is the median of this many set-ups
)

// svcSpecReq is the POST /v1/map body of one op.
type svcSpecReq struct {
	Kernel string  `json:"kernel"`
	Scale  float64 `json:"scale"`
	Arch   string  `json:"arch"`
	Mapper string  `json:"mapper"`
	Seed   int64   `json:"seed"`
	Wait   bool    `json:"wait"`
}

// svcOp is one generated request.
type svcOp struct {
	Spec svcSpecReq
	Body []byte
	Cold bool
}

func newSvcOp(kernel, mapper string, seed int64, cold bool) svcOp {
	spec := svcSpecReq{Kernel: kernel, Scale: svcScale, Arch: svcArch, Mapper: mapper, Seed: seed, Wait: true}
	body, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encoding %+v: %v", spec, err)) // plain struct: cannot fail
	}
	return svcOp{Spec: spec, Body: body, Cold: cold}
}

// warmPool is the set of specs prefilled in setup and hit ever after.
func warmPool() []svcOp {
	var pool []svcOp
	for _, s := range warmSeeds {
		for _, k := range warmKernels {
			pool = append(pool, newSvcOp(k, svcWarmMapper, s, false))
		}
	}
	return pool
}

// coldSeed is the mapper seed of the j-th cold op of a pass. Seeds
// never repeat within a run (pass -1 is the warm-up), so each cold op
// is a cache miss: admission, journal, queue, map, cache put. They do
// not depend on -seed: every run maps the same cold problems, in
// another order.
func coldSeed(pass, j, coldPerPass int) int64 {
	return 1_000_000 + int64((pass+1)*coldPerPass+j)
}

// svcOps is the op list of pass number pass (-1: the warm-up): n ops,
// one in ten cold, the rest spread evenly over the warm pool, in an
// order drawn from (seed, pass). It is a pure function of its
// arguments; the multiset of problems is the same for every seed.
func svcOps(seed int64, pass, n int) []svcOp {
	pool := warmPool()
	cold := n / svcColdShare
	ops := make([]svcOp, 0, n)
	for j := 0; j < cold; j++ {
		ops = append(ops, newSvcOp(coldKernels[j%len(coldKernels)], svcColdMapper,
			coldSeed(pass, j, cold), true))
	}
	for i := 0; len(ops) < n; i++ {
		ops = append(ops, pool[i%len(pool)])
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
