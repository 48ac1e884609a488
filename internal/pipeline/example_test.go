package pipeline_test

import (
	"context"
	"fmt"

	"skynet/internal/pipeline"
)

func ExampleThroughputFPS() {
	// The paper's TX2 pipeline peaks at one image per bottleneck stage.
	fmt.Printf("%.2f FPS\n", pipeline.ThroughputFPS(pipeline.TX2StageProfile))
	// Output: 67.33 FPS
}

func ExampleSystemSpeedup() {
	sp := pipeline.SystemSpeedup(pipeline.TX2SerialProfile, pipeline.TX2StageProfile, 1000)
	fmt.Printf("%.2fx\n", sp)
	// Output: 3.34x
}

// The streaming executor runs each stage on a goroutine of its own and
// micro-batches a stage, while results still come back in input order.
func ExampleExecutor_Run() {
	ex, err := pipeline.NewExecutor(2,
		pipeline.StageSpec{Name: "double",
			Proc: func(_ context.Context, v any) (any, error) { return v.(int) * 2, nil }},
		pipeline.StageSpec{Name: "inc", MaxBatch: 3,
			Batch: func(_ context.Context, items []any) ([]any, error) {
				out := make([]any, len(items))
				for i, v := range items {
					out[i] = v.(int) + 1
				}
				return out, nil
			}},
	)
	if err != nil {
		panic(err)
	}
	out, err := ex.Run(context.Background(), []any{1, 2, 3, 4})
	fmt.Println(out, err)
	// Output: [3 5 7 9] <nil>
}
