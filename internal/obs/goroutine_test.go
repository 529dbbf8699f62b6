package obs

import (
	"testing"

	"dash/internal/obs/obstest"
)

// TestGoShardOnePerGoroutine: a goroutine keys one shard at 200 call depths
// and again after its stack has moved, and so its Counter increments all
// land on that shard.
func TestGoShardOnePerGoroutine(t *testing.T) {
	const depths = 200
	var c Counter
	keys := map[uint64]int{}
	moved := obstest.AtDepths(depths, func(int) {
		keys[GoShard()]++
		c.Add(1)
	})
	if !moved {
		t.Fatal("the large-frame recursion did not move the goroutine's stack")
	}
	if len(keys) != 1 {
		t.Errorf("one goroutine keyed %d shards (key: calls) over %d call depths and a stack move: %v", len(keys), depths, keys)
	}
	var used []int
	for i := range c.shards {
		if c.shards[i].n.Load() != 0 {
			used = append(used, i)
		}
	}
	if len(used) != 1 || c.Total() != 2*depths {
		t.Errorf("one goroutine's %d adds landed on shards %v, total %d", 2*depths, used, c.Total())
	}
}
