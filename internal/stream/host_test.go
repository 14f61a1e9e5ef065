package stream

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestOperateOnStepFunctionBodyPanics calls the blocking Operate from a
// RunFibers body: it must panic naming the call, the rank and FOperate.
func TestOperateOnStepFunctionBodyPanics(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"Operate is a blocking call", "rank 1", "use FOperate"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not say %q", msg, want)
			}
		}
	}()
	w := mpi.NewWorld(mpi.Config{Procs: 2, Seed: 1})
	w.RunFibers(func(r *mpi.Rank, _ *sim.Fiber) sim.StepFunc {
		role := Producer
		if r.ID() == 1 {
			role = Consumer
		}
		return FCreateChannel(r, r.World(), role, func(ch *Channel) sim.StepFunc {
			s := ch.Attach(r, Options{})
			if role == Consumer {
				s.Operate(r, func(*mpi.Rank, Element, int) {})
			}
			return nil
		})
	})
}
