package mpi

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestHotStructSizes pins the size of the structs every event touches
// (DESIGN.md, "Continuations and message lifetime"): a message is one
// 64-byte cache line, and none of the others may change size unnoticed. The
// sizes are those of 64-bit hosts; CI also checks the manifest under
// GOARCH=386, where pointers are half as wide.
func TestHotStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"message", unsafe.Sizeof(message{}), 64},
		{"Request", unsafe.Sizeof(Request{}), 104},
		{"rankState", unsafe.Sizeof(rankState{}), 608},
		{"fwait", unsafe.Sizeof(fwait{}), 80},
		{"fcoll", unsafe.Sizeof(fcoll{}), 344},
		{"sim.Fiber", unsafe.Sizeof(sim.Fiber{}), 104},
	} {
		t.Logf("%-9s %4d bytes", c.name, c.got)
		if c.got != c.want {
			t.Errorf("%s is %d bytes, pinned at %d: a growth needs a reason, a shrink a new pin", c.name, c.got, c.want)
		}
	}
}

// TestNarrowingGuards: each field the message layout narrows is guarded
// where its values are made, by a panic (or, for the world size, a
// Validate error) that names the limit, never by a silent wrap. Each
// guard is driven by setting its counter just below the limit.
func TestNarrowingGuards(t *testing.T) {
	panicsNaming := func(name, limit string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, limit) {
				t.Errorf("%s: panic %q does not name the limit %s", name, msg, limit)
			}
		}()
		f()
	}
	w := testWorld(t, 2)

	// The revocation epoch: 16 bits.
	w.epoch = math.MaxUint16 - 1
	w.bumpEpoch()
	if w.epoch != math.MaxUint16 {
		t.Fatalf("epoch %d, want %d", w.epoch, math.MaxUint16)
	}
	panicsNaming("epoch", "65535", w.bumpEpoch)

	// The communicator context id: int32.
	w.comms = math.MaxInt32 - 1
	if id := w.nextCommID(); id != math.MaxInt32 {
		t.Fatalf("comm id %d, want %d", id, math.MaxInt32)
	}
	panicsNaming("comm id", "2147483647", func() { w.nextCommID() })

	// Collective tags: int32, from collTagBase up.
	c := w.world
	c.collSeq[1] = math.MaxInt32 - collTagBase
	if tag := c.nextCollTag(1); tag != math.MaxInt32 {
		t.Fatalf("collective tag %d, want %d", tag, math.MaxInt32)
	}
	panicsNaming("collective tag", "2130706432", func() { c.nextCollTag(1) })

	if strconv.IntSize == 32 {
		return // an int cannot leave the int32 range below
	}
	// Application tags: int32 below collTagBase.
	below := int64(math.MinInt32) - 1
	checkAppTag("Isend", int(below+1))
	panicsNaming("application tag", "-2147483648", func() { checkAppTag("Isend", int(below)) })
	// Comm ranks: int32, so the world size.
	over := int64(math.MaxInt32) + 1
	if err := (Config{Procs: int(over - 1)}).Validate(); err != nil {
		t.Errorf("Procs %d: %v", over-1, err)
	}
	if err := (Config{Procs: int(over)}).Validate(); err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Errorf("Procs %d: error %v, want the int32 limit named", over, err)
	}
}
