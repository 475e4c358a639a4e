package overd

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
)

var updateRepartitionGolden = flag.Bool("update-repartition-golden", false,
	"rewrite testdata/repartition_storesep.golden from the current code")

// TestRepartitionGolden pins the bits of runs that repartition. The table
// golden runs too few steps to reach a dynamic-balance check, and the
// cross-proc matrix only compares schedules against each other, so without
// this test a repartition that shifted a virtual clock by one ulp, or
// copied a conserved value from the wrong owner, would go unnoticed. Each
// configuration records the run's JSON (every phase total and per-step row
// at full float64 precision) plus FNV-64a digests of the bit patterns of
// the final surface Cp and the grid-0 field. At 16 nodes every grid keeps
// one rank, so repartitions move nothing; at 24 nodes they ship points
// between ranks.
//
// Regenerate only after an intentional model change:
//
//	go test -run TestRepartitionGolden -update-repartition-golden .
func TestRepartitionGolden(t *testing.T) {
	const path = "testdata/repartition_storesep.golden"
	var got bytes.Buffer
	for _, nodes := range []int{16, 24} {
		res, err := Run(Config{
			Case: StoreSeparation(0.05), Nodes: nodes, Machine: SP2(),
			Steps: 9, Fo: 2, CheckInterval: 3, Balancer: "dynamic",
			Sample: &SampleSpec{FieldGrid: 0, FieldK: -1, SurfaceGrid: 0},
		})
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if res.Rebalances < 2 {
			t.Fatalf("%d nodes: %d repartitions, want >= 2", nodes, res.Rebalances)
		}
		if err := EmitRunJSON(&got, res); err != nil {
			t.Fatal(err)
		}
		surf := fnv.New64a()
		for _, s := range res.Surface {
			fmt.Fprintf(surf, "%x ", math.Float64bits(s.Cp))
		}
		field := fnv.New64a()
		for _, s := range res.Field {
			fmt.Fprintf(field, "%x %x ", math.Float64bits(s.Rho), math.Float64bits(s.P))
		}
		fmt.Fprintf(&got, "nodes %d surface_cp %d %016x field %d %016x\n",
			nodes, len(res.Surface), surf.Sum64(), len(res.Field), field.Sum64())
	}
	if *updateRepartitionGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("repartitioning runs diverge from %s; %s", path, firstDiff(got.Bytes(), want))
	}
}
