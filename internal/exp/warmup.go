package exp

import (
	"context"

	"pabst"
)

// warmed builds the system a builder describes and brings it through
// cycles of warmup under ctx. With a beat hook the warmup runs in chunks
// (runChunks) so a supervisor sees liveness during multi-million-cycle
// warmups; chunked RunContext calls followed by one ResetStats are
// exactly WarmupContext, so the warmed state is bit-identical either
// way. On error the system is closed and nil returned.
func warmed(ctx context.Context, b *pabst.Builder, cycles uint64, beat func(done uint64)) (*pabst.System, error) {
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	if beat == nil {
		_, err = sys.WarmupContext(ctx, cycles)
	} else if _, err = runChunks(ctx, sys, cycles, beat); err == nil {
		sys.ResetStats()
	}
	if err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// runChunks advances sys by cycles under ctx in about 32 chunks, so
// cancellation and heartbeats get a word in edgewise, calling beat (when
// non-nil) after each with the cycles done so far. It returns the cycles
// run, with the context error when it stopped early.
func runChunks(ctx context.Context, sys *pabst.System, cycles uint64, beat func(done uint64)) (uint64, error) {
	chunk := max(cycles/32, 1)
	var done uint64
	for done < cycles {
		ran, err := sys.RunContext(ctx, min(chunk, cycles-done))
		done += ran
		if beat != nil {
			beat(done)
		}
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
