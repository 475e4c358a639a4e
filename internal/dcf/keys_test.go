package dcf

import (
	"reflect"
	"sort"
	"testing"
)

// TestDenseBucketOrderMatchesSortedKeys documents the equivalence the
// dense per-rank buckets rely on: iterating a rank-indexed slice in index
// order visits destinations exactly as the sorted keys of the equivalent
// map would. Go map iteration order is randomized, so a send loop driven
// by a map would leak that randomness into message timing and trace order.
func TestDenseBucketOrderMatchesSortedKeys(t *testing.T) {
	buckets := make([][]ptReq, 8)
	m := map[int][]ptReq{}
	for _, dst := range []int{5, 1, 6} {
		buckets[dst] = append(buckets[dst], ptReq{Origin: dst})
		m[dst] = append(m[dst], ptReq{Origin: dst})
	}
	var dense []int
	for dst, pts := range buckets {
		if len(pts) > 0 {
			dense = append(dense, dst)
		}
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if !reflect.DeepEqual(dense, keys) {
		t.Errorf("dense iteration order %v != sorted map keys %v", dense, keys)
	}
}
