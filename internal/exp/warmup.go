package exp

import (
	"context"

	"pabst"
)

// warmed builds the system a builder describes and brings it through
// cycles of warmup under ctx: in chunks (runChunks), then one
// ResetStats, which is exactly WarmupContext with the cancellation
// latency of a chunk. On error the system is closed and nil returned.
func warmed(ctx context.Context, b *pabst.Builder, cycles uint64) (*pabst.System, error) {
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	if _, err = runChunks(ctx, sys, cycles); err != nil {
		sys.Close()
		return nil, err
	}
	sys.ResetStats()
	return sys, nil
}

// runChunks advances sys by cycles under ctx in about 32 chunks.
// RunContext checks ctx at every epoch boundary; the chunks bound how
// long a cancelled run goes on when an epoch (a REST "epoch" param) is
// longer than a chunk. It returns the cycles run, with the context
// error when it stopped early.
func runChunks(ctx context.Context, sys *pabst.System, cycles uint64) (uint64, error) {
	chunk := max(cycles/32, 1)
	var done uint64
	for done < cycles {
		ran, err := sys.RunContext(ctx, min(chunk, cycles-done))
		done += ran
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
