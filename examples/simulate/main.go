// simulate: compile a kernel with the full Pan-SPR* pipeline, lower the
// resulting mapping to configuration words, execute it cycle-accurately
// on the fabric model, and check the observed output stream against a
// direct interpretation of the dataflow graph. Any routed result works
// the same way: config and sim take the mapping a core.Result carries.
//
//	go run ./examples/simulate [-kernel mmul] [-iters 6]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"panorama"
	"panorama/internal/config"
	"panorama/internal/sim"
)

func main() {
	kernelName := flag.String("kernel", "mmul", "benchmark kernel")
	iters := flag.Int("iters", 6, "loop iterations to simulate")
	flag.Parse()

	kernel, err := panorama.Kernel(*kernelName, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	cgra := panorama.NewCGRA8x8()

	res, err := panorama.MapPanSPR(kernel, cgra, 1)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Lower.Success {
		log.Fatal("mapping failed")
	}
	mapping := res.Lower.Mapping
	fmt.Printf("%s mapped at II=%d on %s\n", kernel.Name, mapping.II, cgra)

	prog, err := config.Generate(kernel, cgra, mapping)
	if err != nil {
		log.Fatal(err)
	}
	stats := prog.ComputeStats()
	fmt.Printf("configuration: %d/%d FU slots active (%.0f%% utilisation), %d wire drives, %d RF writes\n",
		stats.ActiveFUSlots, stats.TotalFUSlots, prog.Utilisation()*100, stats.WireDrives, stats.RFWrites)

	trace, err := sim.Execute(kernel, cgra, mapping, *iters)
	if err != nil {
		log.Fatalf("cycle-accurate execution failed: %v", err)
	}
	ref, err := sim.Reference(kernel, *iters)
	if err != nil {
		log.Fatal(err)
	}
	if err := ref.Equal(trace); err != nil {
		log.Fatalf("MISMATCH between fabric and reference: %v", err)
	}
	fmt.Printf("fabric output matches the DFG reference over %d iterations\n\n", *iters)

	ids := make([]int, 0, len(trace.Stores))
	for id := range trace.Stores {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	shown := 0
	for _, id := range ids {
		if shown >= 4 {
			fmt.Printf("... and %d more stores\n", len(ids)-shown)
			break
		}
		fmt.Printf("store %-3d (%s): %v\n", id, kernel.Nodes[id].Name, trace.Stores[id])
		shown++
	}
}
