package coord_test

// Duplicate-completion suppression: a shard whose lease expired runs
// speculatively on two workers, both attempts complete, and the second
// result must be discarded by name — first result wins, the merge
// surface sees each shard exactly once. The choreography is
// channel-driven off the coordinator's own serialized log stream, so
// the duplicate is guaranteed to arrive while the run is still live:
// shard 1 cannot complete until the duplicate for shard 0 has been
// logged, and shard 0's straggler attempt is released only once its
// speculative retry has completed.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpmr/internal/coord"
	"dpmr/internal/harness"
)

func TestDuplicateCompletionSuppressed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	slowRelease := make(chan struct{}) // frees shard 0's straggler attempt
	dupSeen := make(chan struct{})     // closed when the duplicate is logged
	var releaseOnce, dupOnce sync.Once
	var att [4]int32

	fn := coord.Func(func(ctx context.Context, _ harness.Spec, s harness.ShardSpec) ([]byte, error) {
		n := atomic.AddInt32(&att[s.Index], 1)
		switch s.Index {
		case 0:
			// The straggler: attempt 1 wedges past its lease and completes
			// only after the speculative retry's result was accepted, so
			// its completion is the duplicate. The retry (attempt 2) is
			// instant.
			if n == 1 {
				select {
				case <-slowRelease:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		case 1:
			// The witness: pending until the duplicate has been processed,
			// which pins the scheduling loop open for it.
			select {
			case <-dupSeen:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return payload(s), nil
	})

	var mu sync.Mutex
	var logs []string
	payloads, err := coord.Run(ctx, coord.Config{
		Shards:      4,
		Workers:     4,
		Lease:       250 * time.Millisecond,
		MaxAttempts: 2,
		Quarantine:  -1,
		Spawn:       spawnFunc(fn),
		Log: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			mu.Lock()
			logs = append(logs, line)
			mu.Unlock()
			if strings.Contains(line, "shard 0/4: complete") {
				releaseOnce.Do(func() { close(slowRelease) })
			}
			if strings.Contains(line, "duplicate completion discarded") {
				dupOnce.Do(func() { close(dupSeen) })
			}
		},
	})
	if err != nil {
		t.Fatalf("run with a speculative duplicate failed: %v", err)
	}
	for i, p := range payloads {
		want := payload(harness.ShardSpec{Index: i, Count: 4})
		if !bytes.Equal(p, want) {
			t.Errorf("shard %d: payload %s, want %s", i, p, want)
		}
	}
	if got := atomic.LoadInt32(&att[0]); got != 2 {
		t.Errorf("shard 0 ran %d attempts, want exactly 2 (original + speculative)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, "shard 0/4: duplicate completion discarded") {
			return
		}
	}
	t.Errorf("no duplicate-discard log for shard 0; logs:\n%s", strings.Join(logs, "\n"))
}
